"""Rebuild the rows of ROADMAP's baseline table from traced benchmark runs.

    for w in curves validate mc; do
        python3 qbench/run.py --workload $w --seed 1 --seconds 20 --trace 1
    done
    python3 qbench/baseline.py --seed 1

Reads ``qbench/out/<workload>-seed<N>-trace1.json`` and writes
``qbench/baseline.json``: each row with the ROADMAP figure next to the
figure measured here.  Per-call times come from span durations, so they
include the tracing cost of the call's own children; each workload's
tracing overhead is recorded beside them.
"""

import argparse
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent

# what, ROADMAP figure, unit, workload, traced function or named figure, scale
ROWS = [
    ("lambda_lossy", 11.0, "us/call", "curves", "qfi.lambda_lossy", 1e6),
    ("qfi_gaussian, bright limit", 80.0, "us/call", "validate", "qfi.qfi_gaussian[bright]", 1e6),
    ("qfi_gaussian, full", 231.0, "us/call", "curves", "qfi.qfi_gaussian[full]", 1e6),
    ("fock.channel_density, two-mode, n_max=40", 1.2, "s/call", "mc", "fock.channel_density[modes2_n40]", 1.0),
    ("mc_estimate, 1e6 trials, Exact sampler, bTMSS", 1.3, "s/call", "mc", "measurement.mc_estimate[Exact/btmss]", 1.0),
    ("validate battery, check_fock_oracle_qfi", 5.1, "s", "validate", "validate.check_fock_oracle_qfi", 1.0),
    ("validate battery, check_moments_vs_fock", 1.4, "s", "validate", "validate.check_moments_vs_fock", 1.0),
    ("validate battery, whole (untraced)", 6.7, "s", "validate", "named:validate_s", 1.0),
]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    reports = {
        w: json.loads((HERE / "out" / f"{w}-seed{args.seed}-trace1.json").read_text())
        for w in ("curves", "validate", "mc")
    }
    rows = []
    for what, roadmap, unit, workload, source, scale in ROWS:
        rep = reports[workload]
        if source.startswith("named:"):
            value = rep["named"][source.removeprefix("named:")][0]
        else:
            fn = rep["functions"][source]
            value = fn["incl_s"] / fn["calls"] * scale
        rows.append({"what": what, "roadmap": roadmap, "this_machine": value, "unit": unit,
                     "workload": workload, "source": source})
    out = {
        "seed": args.seed,
        "environment": reports["curves"]["environment"],
        "tracing_overhead_pct": {w: r["result"]["metrics"]["trace.overhead_pct"]["value"] for w, r in reports.items()},
        "rows": rows,
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    for r in rows:
        print(f"{r['what']:50s} roadmap {r['roadmap']:>8g}  here {r['this_machine']:>10.4g} {r['unit']}")


if __name__ == "__main__":
    main()
