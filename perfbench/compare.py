"""Compare two sets of benchmark results, metric by metric and workload by
workload, against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files as `run.py` writes them to
`perfbench/results/` (copy that directory aside between the two sets).  Only
untraced results count.  For each workload and end-to-end metric the script
prints both medians over the files' seeds, the change of the second against
the first in the metric's worse direction, and each set's quartile spread as
a share of its median.  A row is `ok` when the change stays within the bound,
`WORSE` when it does not, and `unresolved` when it is within the bound but a
spread exceeds it.  The share of failed operations must match exactly.  Exit
status 1 if any row is `WORSE` or a failed share differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{workload: {"metrics": {name: [values]}, "attempted": n, "failed": n}}"""
    sets = defaultdict(lambda: {"metrics": defaultdict(list), "attempted": 0, "failed": 0})
    for path in sorted(directory.glob("*-trace0.json")):
        r = json.loads(path.read_text())
        entry = sets[r["workload"]]
        entry["attempted"] += r["attempted"]
        entry["failed"] += r["failed"]
        for name, value in r["metrics"].items():
            entry["metrics"][name].append(value)
    return sets


def spread(values: list) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    worse = False
    print(f"{'workload':11s} {'metric':12s} {'base':>10s} {'new':>10s} {'change':>8s} "
          f"{'bound':>6s} {'spread':>13s}  verdict")
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        for m in declared:
            bv, nv = b["metrics"].get(m["name"]), n["metrics"].get(m["name"])
            if not bv or not nv:
                continue
            mb, mn = statistics.median(bv), statistics.median(nv)
            change = (mn - mb) / mb * (1 if m["better"] == "lower" else -1)
            spreads = (spread(bv), spread(nv))
            if change > m["bound"]:
                verdict, worse = "WORSE", True
            elif max(spreads) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:11s} {m['name']:12s} {mb:10.4g} {mn:10.4g} {change:+8.3f} "
                  f"{m['bound']:6.2f} {spreads[0]:6.3f}/{spreads[1]:6.3f}  {verdict}")
        shares = (b["failed"] / max(b["attempted"], 1), n["failed"] / max(n["attempted"], 1))
        if shares[0] != shares[1]:
            worse = True
            print(f"{workload:11s} failed share {shares[0]:.6f} vs {shares[1]:.6f}  DIFFERS")
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload:11s} present in one set only")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
