"""Compare two sets of benchmark results metric by metric.

Usage: ``python3 perfbench/compare.py BASE.jsonl NEW.jsonl``

Each file holds result lines of ``perfbench/run.py`` (its last stdout line),
one per run, of one workload.  For every metric the script prints the
median and quartiles of each side, the ratio new/base, and, for end-to-end
metrics, whether the new median is worse than the base by more than the
bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_load(p) for p in argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for side, runs in (("base", base), ("new", new)):
        failed = sum(r["failed"] for r in runs)
        print(f"{side}: {len(runs)} runs, {failed} failed of {sum(r['attempted'] for r in runs)}")
    for name in base[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not b:
            print(f"{name}: missing in {argv[1]}")
            continue
        (a1, am, a3), (b1, bm, b3) = _summary(a), _summary(b)
        unit = base[0]["metrics"][name]["unit"]
        ratio = bm / am if am else float("nan")
        line = (f"{name} [{unit}]: base {am:.6g} ({a1:.6g}..{a3:.6g})  "
                f"new {bm:.6g} ({b1:.6g}..{b3:.6g})  new/base {ratio:.4f}")
        if name in bounds:
            m = bounds[name]
            loss = (am - bm) / am if m["better"] == "higher" else (bm - am) / am
            verdict = "WORSE beyond bound" if loss > m["bound"] else "within bound"
            worse += loss > m["bound"]
            line += f"  spread base {(a3 - a1) / am:.3f}  {verdict} ({m['bound']})"
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
