"""Every benchmark scenario resolves, and echoes the configuration its reference summary holds.

This runs no verb: it walks each distinct scenario document of every
workload variant against ``phhs.cli.SCHEMA`` and compares the configuration
the summary echoes with the reference ``summary.json`` under
``bench/golden/``.  A stricter schema that rejected a benchmark scenario
(say one whose ``words`` hold JSON integers, or whose ``T`` is pi) fails
here, as does an echo that drifts from the references.
"""

import json
import sys
from pathlib import Path

import pytest

from phhs import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import scenarios  # noqa: E402


def _documents():
    docs = {}
    for name in scenarios.FOCUS:
        for variant in range(scenarios.VARIANTS):
            for verb, cfg in scenarios.workload(name, variant):
                docs.setdefault(golden.key(verb, cfg), (verb, cfg))
    return docs


DOCUMENTS = _documents()


def test_every_reference_has_its_scenario():
    assert sorted(DOCUMENTS) == sorted(p.name for p in golden.GOLDEN_DIR.iterdir())


@pytest.mark.parametrize("key", sorted(DOCUMENTS))
def test_scenario_resolves_and_echoes_its_reference(key):
    verb, cfg = DOCUMENTS[key]
    cfg = json.loads(json.dumps(cfg))  # as the CLI reads it
    echoed = cli.echo(verb, cfg, cli.resolve(verb, cfg), 1.0)
    ref = json.loads((golden.GOLDEN_DIR / key / "summary.json").read_text())
    for k in ("results", "checks", "pass"):
        del ref[k]
    # compared as text, so an int echoed as a float shows
    assert json.dumps(cli._fmt(echoed), sort_keys=True) == json.dumps(ref, sort_keys=True)
