"""Write the reference outputs of every scenario of every workload variant.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/capture.py

Each distinct scenario runs once through ``phhs.cli.main`` into
``bench/golden/<verb>-<hash>/``; it must exit 0 with every check passing.
Existing reference directories are kept; delete one to capture it again.
"""

import json
import shutil
import sys
from pathlib import Path

import run  # sets the thread environment before numpy loads
import golden
import scenarios


def main():
    cli = run.import_phhs(Path.cwd() / "src")
    scratch = Path.cwd() / ".bench_out" / "capture"
    seen = set()
    bad = 0
    for wl in scenarios.FOCUS:
        for variant in range(scenarios.VARIANTS):
            for verb, cfg in scenarios.workload(wl, variant):
                key = golden.key(verb, cfg)
                ref = golden.GOLDEN_DIR / key
                if key in seen or ref.is_dir():
                    continue
                seen.add(key)
                shutil.rmtree(scratch, ignore_errors=True)
                (scratch / "out").mkdir(parents=True)
                (scratch / "scenario.json").write_text(json.dumps(cfg))
                rc = cli.main([verb, "--config", str(scratch / "scenario.json"), "--out", str(scratch / "out")])
                checks = json.loads((scratch / "out" / "summary.json").read_text())["checks"] if rc in (0, 2) else []
                margins = ", ".join(f"{c['name']}={c['value']:.3g}/{c['tolerance']:.3g}" for c in checks)
                print(f"{wl} v{variant} {key}: exit {rc}; {margins}", flush=True)
                if rc != run.EXPECTED_EXIT or not all(c["pass"] for c in checks):
                    bad += 1
                    continue
                shutil.copytree(scratch / "out", ref)
    shutil.rmtree(scratch, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
