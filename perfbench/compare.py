"""Compare benchmark outputs taken before and after a change.

    python3 perfbench/compare.py --before A1.out A2.out ... --after B1.out ...

Each file is the captured stdout of one ``run.py`` run.  Prints, per
metric, the median of each side and the relative change.  Refuses (exit
2) to compare runs of different workloads or trace modes, or runs taken
at different BLAS thread counts: iteration counts, and with them the
sweep's verdicts, change with the thread count.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    header, result = json.loads(lines[-2]), json.loads(lines[-1])
    key = (header["workload"], header["trace"], header["env"]["blas_threads"])
    return key, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    runs = {side: [load(p) for p in getattr(args, side)]
            for side in ("before", "after")}
    keys = {key for side in runs.values() for key, _ in side}
    if len(keys) != 1:
        print("compare: runs differ in (workload, trace, blas_threads): "
              f"{sorted(keys, key=str)}", file=sys.stderr)
        return 2
    print(f"{'metric':<48} {'before':>14} {'after':>14} {'change':>9}")
    names = runs["before"][0][1]["metrics"]
    for name, first in names.items():
        med = {side: statistics.median(r["metrics"][name]["value"]
                                       for _, r in runs[side])
               for side in runs}
        change = (f"{med['after'] / med['before'] - 1:+.1%}"
                  if med["before"] else "n/a")
        print(f"{name:<48} {med['before']:>14.6g} {med['after']:>14.6g} "
              f"{change:>9}  {first['unit']}")
    for side, results in runs.items():
        failed = sum(r["failed"] for _, r in results)
        attempted = sum(r["attempted"] for _, r in results)
        print(f"{side}: {len(results)} runs, {failed}/{attempted} ops failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
