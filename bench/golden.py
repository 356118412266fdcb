"""Reference outputs of every benchmark scenario and the comparison against them.

References live in ``bench/golden/<verb>-<hash of the scenario>/``, one
directory per distinct scenario document, holding the ``summary.json`` and
CSV files the CLI wrote for it at the commit that defined the benchmark.

A run's outputs pass when they hold the same files, every ``checks[].pass``
flag and every string equal to the reference, and every number within
``ATOL + RTOL * |reference|``.  Byte identity is reported separately and
does not fail a run: deliberate last-digit changes are allowed.
"""

import hashlib
import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# ATOL is a floor for results whose reference is near zero: finite-difference
# residuals captured at 1e-15..2e-10 pass anywhere below about 1e-7, so they
# may grow by a factor of up to 10^7 and still pass.  That is loose on
# purpose: such a residual is rounding noise (eps/h ~ 2e-11 per difference
# at h = 1e-5, more where differences are nested), so a reordering of the
# arithmetic may move it by orders of magnitude.  The verdicts the residuals
# feed are compared exactly through ``checks[].pass``, and RTOL checks every
# result away from zero.
RTOL = 1e-6
ATOL = 1e-7


def key(verb, cfg):
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]
    return f"{verb}-{digest}"


def _close(a, b):
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL) or (math.isnan(a) and math.isnan(b))


def _same(out, ref, where):
    """Messages for every difference between two decoded JSON values."""
    if isinstance(ref, bool) or isinstance(out, bool):
        return [] if out is ref else [f"{where}: {out!r} != {ref!r}"]
    if isinstance(ref, (int, float)) and isinstance(out, (int, float)):
        return [] if _close(float(out), float(ref)) else [f"{where}: {out!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(out, dict):
        if sorted(out) != sorted(ref):
            return [f"{where}: keys {sorted(out)} != {sorted(ref)}"]
        return [m for k in ref for m in _same(out[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(out, list):
        if len(out) != len(ref):
            return [f"{where}: length {len(out)} != {len(ref)}"]
        return [m for i, (o, r) in enumerate(zip(out, ref)) for m in _same(o, r, f"{where}[{i}]")]
    return [] if out == ref else [f"{where}: {out!r} != {ref!r}"]


def _csv_cells(text):
    rows = []
    for line in text.splitlines():
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return rows


def compare(out_dir, ref_dir):
    """(messages, byte-identical file names, compared file names)."""
    out_dir, ref_dir = Path(out_dir), Path(ref_dir)
    if not ref_dir.is_dir():
        return [f"no reference outputs at {ref_dir.name}"], [], []
    ref_files = sorted(p.name for p in ref_dir.iterdir())
    out_files = sorted(p.name for p in out_dir.iterdir())
    if out_files != ref_files:
        return [f"files {out_files} != {ref_files}"], [], ref_files
    messages, identical = [], []
    for name in ref_files:
        out_b = (out_dir / name).read_bytes()
        ref_b = (ref_dir / name).read_bytes()
        if out_b == ref_b:
            identical.append(name)
            continue
        if name.endswith(".json"):
            messages += _same(json.loads(out_b), json.loads(ref_b), name)
        else:
            messages += _same(_csv_cells(out_b.decode()), _csv_cells(ref_b.decode()), name)
    return messages, identical, ref_files
