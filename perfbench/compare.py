"""Compare two sets of benchmark result files, one row per metric and workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the `<workload>_seed<n>_trace0.json` files of one
commit (copies of perfbench/results/).  For every end-to-end metric of
BENCHMARK.json and every workload, the row gives each side's median,
quartiles and run count, and a verdict under the benchmark's own bound:

- unresolved: either side's spread (quartile distance over median) is wider
  than the bound, and not every change run beats every parent run;
- worse:      the change's median is worse than the parent's by more than
  the bound;
- improved:   the change's median is better by more than the parent's
  quartile distance, and the change wins at least nine tenths of the runs
  paired by seed (so both sides must run the same seeds);
- unchanged:  otherwise.

`failed_frac` gets a row per workload too: any rise is worse.  The exit
code is 1 when some row is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{workload: {seed: result}} from the untraced result files."""
    out: dict = {}
    for path in sorted(directory.glob("*_trace0.json")):
        res = json.loads(path.read_text())
        out.setdefault(res["workload"], {})[res["seed"]] = res
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _cell(q, n) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {n}"


def verdict(parent: dict, change: dict, metric: dict) -> tuple[str, dict]:
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    pv = [r["metrics"][name]["value"] for r in parent.values()]
    cv = [r["metrics"][name]["value"] for r in change.values()]
    pq, cq = quartiles(pv), quartiles(cv)
    spread = max((q[2] - q[0]) / q[1] if q[1] else float("inf") for q in (pq, cq))
    if min(len(pv), len(cv)) < 2:
        spread = float("inf")  # one run has no measured spread
    rel = sign * (cq[1] - pq[1]) / pq[1]  # > 0 means worse
    all_better = max(sign * v for v in cv) < min(sign * v for v in pv)
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * change[s]["metrics"][name]["value"] < sign * parent[s]["metrics"][name]["value"]
               for s in seeds)
    detail = {"parent": pq, "change": cq, "n": (len(pv), len(cv)), "rel": rel,
              "pairs": (wins, len(seeds))}
    if spread > bound and not all_better:
        return "unresolved", detail
    if rel > bound:
        return "worse", detail
    better_by = -sign * (cq[1] - pq[1])
    if better_by > pq[2] - pq[0] and seeds and wins >= 0.9 * len(seeds):
        return "improved", detail
    return "unchanged", detail


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    worse = False
    head = f"{'workload':<18} {'metric':<12} {'unit':<5} {'parent median [q1, q3] n':<32} " \
           f"{'change median [q1, q3] n':<32} {'delta':>8}  verdict"
    print(head)
    print("-" * len(head))
    for wl in (w["name"] for w in bench["workloads"]):
        if wl not in parent or wl not in change:
            print(f"{wl:<18} (no results on {'parent' if wl not in parent else 'change'} side)")
            continue
        for metric in bench["end_to_end"]:
            v, d = verdict(parent[wl], change[wl], metric)
            worse |= v == "worse"
            delta = (d["change"][1] - d["parent"][1]) / d["parent"][1] * 100
            print(f"{wl:<18} {metric['name']:<12} {metric['unit']:<5} {_cell(d['parent'], d['n'][0]):<32} "
                  f"{_cell(d['change'], d['n'][1]):<32} {delta:>+7.1f}%  {v}")
        pf = statistics.median(r["failed_frac"] for r in parent[wl].values())
        cf = statistics.median(r["failed_frac"] for r in change[wl].values())
        v = "worse" if cf > pf else "improved" if cf < pf else "unchanged"
        worse |= v == "worse"
        print(f"{wl:<18} {'failed_frac':<12} {'ratio':<5} {pf:<32.4g} {cf:<32.4g} {'':>8}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
