"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload store_large --seeds 1-10

Runs ``perfbench/run.py`` once per seed (one after another, so runs do
not compete for cores) and prints, per metric, the median and the
interquartile range as a share of the median next to the metric's
bound in ``BENCHMARK.json``.  The spread should stay below a third of
the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import median, spread

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"], cwd=ROOT,
            capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for metric in bench["end_to_end"]:
        series = values[metric["name"]]
        share = spread(series)
        wide = share > metric["bound"] / 3
        print(f"{metric['name']:<22} median {median(series):>10.4g} "
              f"spread {share:6.3f}  bound {metric['bound']}"
              f"{'  <-- over a third of the bound' if wide else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
