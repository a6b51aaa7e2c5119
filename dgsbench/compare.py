"""Compare two dgsbench record files, A (the base) and B.

    python3 dgsbench/compare.py A.json B.json

For every (metric, workload) pair: each side's median over its runs,
the ratio B/A with its base, each side's spread (distance between the
quartiles as a share of the median) and a verdict against the bound in
the record's copy of BENCHMARK.json: ``ok``, ``regressed`` (B worse
than A by more than the bound) or ``unresolved`` (a spread wider than
the bound: the runs cannot tell; ``setup_s`` is exempt, as in the
benchmark contract, because three set-ups per run is all a run can
afford).  Numbers without a bound get a ratio only.  Exits 1 unless
every bounded pair is ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple


def load(path: str) -> Tuple[dict, Dict[Tuple[str, str], List[dict]]]:
    with open(path) as fh:
        record = json.load(fh)
    by_pair: Dict[Tuple[str, str], List[dict]] = {}
    for run in record["runs"]:
        for metric, m in run["metrics"].items():
            by_pair.setdefault((run["workload"], metric), []).append(m)
    return record, by_pair


def centre_and_spread(samples: List[dict]) -> Tuple[float, Optional[float]]:
    """Median over runs and IQR/median; a single run falls back to the
    quartiles of its own repeats, when it recorded them."""
    values = [m["median"] for m in samples]
    centre = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    elif "q1" in samples[0]:
        q1, q3 = samples[0]["q1"], samples[0]["q3"]
    else:
        return centre, None
    return centre, (q3 - q1) / abs(centre) if centre else None


def verdict(a: float, b: float, spreads: List[Optional[float]], spec: dict) -> str:
    bound = spec["bound"]
    if spec["name"] != "setup_s" and any(s is None or s > bound for s in spreads):
        return "unresolved"
    worse = (a - b) / a if spec["better"] == "higher" else (b - a) / a
    return "regressed" if worse > bound else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (rec_a, a), (rec_b, b) = load(argv[0]), load(argv[1])
    for side, rec in (("A", rec_a), ("B", rec_b)):
        p = rec["provenance"]
        print(f"{side}: seed {p['seed']}, nproc {p['nproc']}, python {p['python']}, "
              f"load {p['loadavg_at_start'][0]:.2f}, {p['platform']}, {p['time']}")
    bounded = {m["name"]: m for m in rec_a["benchmark"]["end_to_end"]}
    bad = 0
    print(f"{'workload':13s} {'metric':42s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
          f"{'spreadA':>8s} {'spreadB':>8s} {'bound':>6s} verdict")
    for pair in sorted(set(a) & set(b)):
        workload, metric = pair
        (ca, sa), (cb, sb) = centre_and_spread(a[pair]), centre_and_spread(b[pair])
        ratio = f"{cb / ca:7.3f}" if ca else "    n/a"
        spreads = " ".join(f"{s:8.3f}" if s is not None else "     n/a" for s in (sa, sb))
        spec = bounded.get(metric)
        if spec is None:
            tail = f"{'':>6s} -"
        else:
            v = verdict(ca, cb, [sa, sb], spec)
            bad += v != "ok"
            tail = f"{spec['bound']:6.2f} {v}"
        print(f"{workload:13s} {metric:42s} {ca:12.6g} {cb:12.6g} {ratio} {spreads} {tail}")
    only = sorted(set(a) ^ set(b))
    if only:
        print(f"in one file only: {only}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
