"""Metric names, units and the arithmetic that turns samples into them.

This module is the single list of metrics the runner emits;
``BENCHMARK.json`` must name the same ones (a self-test checks this).
"""

import math
import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("batch_s", "s", "lower", 0.25),
    ("points_per_s", "1/s", "higher", 0.25),
]

# Public functions whose calls and self time are reported per layer.
FUNCTIONS = {
    "fock": [
        "build_fock_state",
        "lossy_density",
        "apply_loss_density",
        "channel_density",
        "oracle_qfi",
        "oracle_moments",
    ],
    "qfi": ["lambda_lossy", "lambda_pure", "qfi_gaussian"],
    "gaussian": ["make_source", "apply_channel", "photon_moments", "symplectic_eigenvalues"],
    "measurement": ["mc_estimate"],
    "cli": ["figure2_rows", "figure3_rows", "sweep_rows", "write_records"],
}
# Cheap calls, for which a call rate (inverse of the mean inclusive time) is reported.
RATED = ["qfi.lambda_lossy", "qfi.lambda_pure", "qfi.qfi_gaussian"] + [
    f"gaussian.{f}" for f in FUNCTIONS["gaussian"]
]
CHECKS = [
    "check_closed_vs_gaussian",
    "check_full_qfi_vs_btmss_closed",
    "check_symplectic_closed_form",
    "check_measurement_saturation",
    "check_fock_oracle_qfi",
    "check_moments_vs_fock",
    "check_derivatives",
    "check_mc_zscores",
]
LAYERS = ["gaussian", "qfi", "fock", "measurement", "validate", "cli", "bench"]
IMPORTS = ["qcrb_lab", "gaussian", "qfi", "fock", "measurement", "validate", "cli"]
# name, unit, better
COUNTERS = [
    ("fock.n_max", "count_computed", "lower"),
    ("fock.rho_dim", "count_computed", "lower"),
    ("fock.rho_bytes", "B_computed", "lower"),
    ("fock.rho_bytes_per_call", "B_computed", "lower"),
    ("cli.rows_out", "count", "higher"),
    ("cli.bytes_out", "B", "lower"),
    ("measurement.trials", "count", "higher"),
]


def _per_layer():
    """(name, unit, better) of every per-layer metric.

    Shares of time, call counts, sizes and seconds are better lower;
    call rates, rows written and trials run per pass are better higher.
    """
    out = []
    for layer in LAYERS:
        out.append((f"layer.{layer}.self_pct", "%", "lower"))
    for module, names in FUNCTIONS.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.self_pct", "%", "lower"))
    for name in RATED:
        out.append((f"{name}.calls_per_s", "1/s", "higher"))
    out.append(("qfi.qfi_gaussian.bright.calls_per_s", "1/s", "higher"))
    out.append(("qfi.qfi_gaussian.full.calls_per_s", "1/s", "higher"))
    out.extend(COUNTERS)
    for check in CHECKS:
        out.append((f"validate.{check}.pct", "%", "lower"))
    for module in IMPORTS:
        out.append((f"import.{module}_s", "s", "lower"))
    out.extend(
        [
            ("trace.traced_pass_s", "s", "lower"),
            ("trace.untraced_pass_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.overhead_pct", "%", "lower"),
            ("trace.spans", "count", "lower"),
        ]
    )
    return out


PER_LAYER = _per_layer()


def benchmark_spec():
    """The metric part of BENCHMARK.json, as the runner defines it."""
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def tail(samples):
    """Highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it.

    Returns (percentile, value, sample count), or None with fewer than 20
    samples.  Nearest-rank percentile.
    """
    n = len(samples)
    best = None
    for q in (50.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10:
            best = q
    if best is None:
        return None
    ranked = sorted(samples)
    return best, ranked[max(0, math.ceil(best / 100.0 * n) - 1)], n


def per_layer_values(by_name, by_tag, counters, passes, timed_s, traced_s, untraced_s, imports, spans):
    """Per-layer metrics for one traced run, as per-pass figures.

    by_name/by_tag come from tracer.aggregate over every traced pass;
    timed_s is the summed duration of the benchmark's root spans (the
    timed operations), traced_s/untraced_s are median pass wall times.
    """
    def row(name):
        return by_name.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def pct(seconds):
        return 100.0 * seconds / timed_s if timed_s > 0 else 0.0

    def rate(r):
        return r["calls"] / r["incl_s"] if r["incl_s"] > 0 else 0.0

    values = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, r in by_name.items():
        layer_self[name.split(".", 1)[0]] += r["self_s"]
    for layer in LAYERS:
        values[f"layer.{layer}.self_pct"] = pct(layer_self[layer])
    for module, names in FUNCTIONS.items():
        for fn in names:
            r = row(f"{module}.{fn}")
            values[f"{module}.{fn}.calls"] = r["calls"] / passes
            values[f"{module}.{fn}.self_pct"] = pct(r["self_s"])
    for name in RATED:
        values[f"{name}.calls_per_s"] = rate(row(name))
    for variant in ("bright", "full"):
        r = by_tag.get(f"qfi.qfi_gaussian[{variant}]", {"calls": 0, "incl_s": 0.0})
        values[f"qfi.qfi_gaussian.{variant}.calls_per_s"] = rate(r)
    calls = counters.get("fock.rho_calls", 0.0)
    values["fock.n_max"] = counters.get("fock.n_max", 0.0)
    values["fock.rho_dim"] = counters.get("fock.rho_dim", 0.0)
    values["fock.rho_bytes"] = counters.get("fock.rho_bytes", 0.0)
    values["fock.rho_bytes_per_call"] = counters.get("fock.rho_bytes_sum", 0.0) / calls if calls else 0.0
    for name in ("cli.rows_out", "cli.bytes_out", "measurement.trials"):
        values[name] = counters.get(name, 0.0) / passes
    for check in CHECKS:
        values[f"validate.{check}.pct"] = pct(row(f"validate.{check}")["incl_s"])
    for module in IMPORTS:
        values[f"import.{module}_s"] = imports[module]
    values["trace.traced_pass_s"] = traced_s
    values["trace.untraced_pass_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    values["trace.spans"] = spans / passes
    return values
