"""Compare two checkouts on one qbench workload in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B [--out PATH]

For each seed N from A to B, one pair runs

    python3 qbench/run.py --workload W --seed N --seconds S --trace 0

once in each checkout, the parent first in even pairs (counting from 0) and
the change first in odd ones, and reads the result line each run prints last.
S is the change's BENCHMARK.json run_seconds, so every run is as long as the
benchmark's own.  For every end-to-end metric that BENCHMARK.json names, it
prints each side's median and quartiles (inclusive), the change's median over
the parent's, the pairs the change won (a tie counts for neither side),
whether the change's median is worse than the parent's by more than the
metric's bound (a share of the parent's median), and whether the metric is
unresolved: the parent's quartiles lie further apart than that bound, so its
own spread can hide a move of that size, unless every change run beats every
parent run.  With --out it writes the same, with every pair's figures, to PATH
as JSON.  It writes nothing else; each run.py writes its own report under its
checkout's qbench/out/.

Exit status: 0 when every run reported "correct": true, 1 when one did not or
printed no result line, 2 on bad arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="inclusive range A-B, one pair per seed")
    p.add_argument("--out", type=Path, help="write the summary and every pair's figures here as JSON")
    args = p.parse_args(argv)
    for side in (args.parent, args.change):
        if not (side / "qbench" / "run.py").is_file():
            p.error(f"{side} holds no qbench/run.py")
    try:
        a, b = (int(x) for x in args.seeds.split("-"))
    except ValueError:
        p.error(f"--seeds {args.seeds!r} is not A-B")
    if b < a:
        p.error(f"--seeds {args.seeds!r}: B below A")
    args.seeds = list(range(a, b + 1))
    return args


def _run(checkout, workload, seed, seconds):
    """The result line of one qbench run, or None when it printed none."""
    cmd = [sys.executable, "qbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{checkout} seed {seed}: no result line (exit {proc.returncode})\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None


def _spread(values):
    if len(values) == 1:
        return values[0], [values[0], values[0]]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, [q1, q3]


def _summarize(metrics, pairs):
    """Per metric: each side's median and quartiles, the ratio, pairs won, the bound check and
    whether the parent's spread is too wide for that check to tell."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        figures = [(p[name]["value"], c[name]["value"]) for p, c in pairs]
        parents, changes = [p for p, _ in figures], [c for _, c in figures]
        parent_median, parent_q = _spread(parents)
        change_median, change_q = _spread(changes)
        worse = change_median - parent_median if lower else parent_median - change_median
        every_run_better = max(changes) < min(parents) if lower else min(changes) > max(parents)
        out[name] = {
            "better": m["better"],
            "unit": m["unit"],
            "bound": m["bound"],
            "parent_median": parent_median,
            "parent_quartiles": parent_q,
            "change_median": change_median,
            "change_quartiles": change_q,
            "ratio": change_median / parent_median if parent_median else None,
            "change_wins": sum((c < p) if lower else (c > p) for p, c in figures),
            "worse_than_bound": worse > m["bound"] * abs(parent_median),
            "unresolved": (parent_q[1] - parent_q[0] > m["bound"] * abs(parent_median)
                           and not every_run_better),
            "pairs_parent_change": figures,
        }
    return out


def main(argv=None):
    args = _parse(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(bench["run_seconds"])
    pairs, runs = [], []
    for i, seed in enumerate(args.seeds):
        order = [("parent", args.parent), ("change", args.change)]
        got = {}
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            got[side] = _run(checkout, args.workload, seed, seconds)
            runs.append({"pair": i, "seed": seed, "side": side,
                         "correct": bool(got[side] and got[side]["correct"]),
                         "failed": got[side]["failed"] if got[side] else None})
        if got["parent"] and got["change"]:
            pairs.append((got["parent"]["metrics"], got["change"]["metrics"]))
    if not pairs:
        print("no pair produced figures on both sides", file=sys.stderr)
        return 1
    summary = {
        "workload": args.workload,
        "seconds": seconds,
        "seeds": args.seeds,
        "pairs": len(pairs),
        "order": "parent first in even pairs, change first in odd ones",
        "correct": all(r["correct"] for r in runs),
        "runs": runs,
        "metrics": _summarize(bench["end_to_end"], pairs),
    }
    print(f"{args.workload}: {len(pairs)} pairs, {seconds:g} s runs, all correct: {summary['correct']}")
    for name, r in summary["metrics"].items():
        print(f"  {name:14s} parent {r['parent_median']:.6g} [{r['parent_quartiles'][0]:.6g}, "
              f"{r['parent_quartiles'][1]:.6g}]  change {r['change_median']:.6g} [{r['change_quartiles'][0]:.6g}, "
              f"{r['change_quartiles'][1]:.6g}] {r['unit']}  change won {r['change_wins']}/{len(pairs)}"
              f"{'  WORSE THAN BOUND' if r['worse_than_bound'] else ''}"
              f"{'  UNRESOLVED' if r['unresolved'] else ''}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
