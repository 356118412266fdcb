"""CLI outputs of the benchmark's variant-0 scenarios match ``bench/golden/`` byte for byte.

The references were captured when the benchmark was defined, so this test
holds every refactor to those numbers.  The ``bigrid`` ``action-check``
focus scenario is left out: it takes seconds, and the benchmark's own
reference check covers it.  The ``bigrid`` ``integrate`` focus scenario
stays in: it is the one case where the expression-defined J_g of the
twisted model runs inside RK4 flows next to the quadrature primitive H_I.
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
        for verb, cfg in scenarios.workload(name, 0):
            if name == "bigrid" and verb == "action-check":
                continue
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
