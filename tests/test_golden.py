"""CLI outputs of the benchmark's scenarios match ``bench/golden/`` byte for byte.

The references were captured when the benchmark was defined, so this test
holds every refactor to those numbers.  Every distinct variant-0 scenario
is in, the two ``bigrid`` focus scenarios among them: ``integrate`` is the
one case where the expression-defined J_g of the twisted model runs inside
RK4 flows next to the quadrature primitive H_I, and ``action-check`` the
one where a 17 x 17 grid feeds the parallelogram action and its gradient.
The twisted ``integrate`` focus scenario of every other variant is in as
well: each moves x0 and the anchor node, so J_g runs inside the grid's RK4
flows and the swap check's flows from a moved anchor.  So are the
``monodromy`` and ``foliate`` focus scenarios of every other variant: each
moves the central problem's x0, and every one of their flows steps a single
point on the scalar lane of :mod:`phhs.flows`, whose bits these hold to the
numpy path's references.  The jet-bound verbs
(``integrability-scan``, ``deform``, ``connection-check``) are cheap, so
their scenarios of every variant are in too: each variant moves the scan
centers, and with them every stencil point.
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


JET_VERBS = ("integrability-scan", "deform", "connection-check")
LANE_VERBS = ("monodromy", "foliate")


def _cases():
    cases = {}
    for name in scenarios.FOCUS:
        for variant in range(scenarios.VARIANTS):
            for verb, cfg in scenarios.workload(name, variant):
                twisted_integrate = verb == "integrate" and cfg["model"] == scenarios.TWISTED
                lane_focus = name == "orbits" and verb in LANE_VERBS
                if variant == 0 or verb in JET_VERBS or twisted_integrate or lane_focus:
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
