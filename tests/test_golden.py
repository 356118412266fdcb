"""CLI outputs of the benchmark's scenarios match ``bench/golden/`` byte for byte.

The references were captured when the benchmark was defined, so this test
holds every refactor to those numbers.  Every one of the 100 distinct
scenarios of the three workloads and their eight variants is in: each
variant moves x0, the anchor node or the scan centers, and with them every
RK4 stage and every stencil point.  Every single-point flow among them steps
on the scalar lane of :mod:`phhs.flows` (the twisted model's X and J_g X,
the oscillator's X and J X, the central problem's and the Morse orbit's), so
these hold the lane's bits to the numpy path's references.
"""

import json
import sys
from pathlib import Path

import pytest

from phhs.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import scenarios  # noqa: E402


def _cases():
    cases = {}
    for name in scenarios.FOCUS:
        for variant in range(scenarios.VARIANTS):
            for verb, cfg in scenarios.workload(name, variant):
                cases.setdefault(golden.key(verb, cfg), (verb, cfg))
    return cases


CASES = _cases()


@pytest.mark.parametrize("key", sorted(CASES))
def test_cli_outputs_match_golden_bytes(key, tmp_path):
    verb, cfg = CASES[key]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([verb, "--config", str(config), "--out", str(out)]) == 0
    messages, identical, files = golden.compare(out, golden.GOLDEN_DIR / key)
    assert files and identical == files, messages
