"""Command-line front end: reports, sweeps, figure data, Monte Carlo, validation.

Emits CSV (UTF-8, LF, header row) or JSON (array of records), so that
identical configurations produce byte-identical output.  CSV prints a
float with 12 significant digits (`.12g`); JSON prints the shortest repr
of the double rounded to 12 significant digits, so JSON shows 1.0 where
CSV shows 1.  A result that is not a finite number ends the command with
exit 1 before anything is written.
"""

import argparse
import csv
import io
import json
import math
import sys
import warnings

import numpy as np

from .gaussian import FIELDS_READ, ChannelConfig, ComplexAmplitude, SqueezeSpec, StateKind, StateSpec
from .measurement import MCConfig, MeasurementPlan, Sampler, mc_estimate, strategy_for, transmission_var
from .qfi import lambda_curve, lambda_lossy, resource_photons
from .validate import run_battery

FIGURE_COLUMNS = ["curve_id", "state", "s", "T", "T_p", "eta_p", "eta_a", "lambda"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite(v):
    if not math.isfinite(v):
        raise ValueError(f"result {v} is not a finite number")
    return v


def _csv_cell(v):
    if isinstance(v, float):
        return f"{_finite(v):.12g}"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((str(v), ""))  # a lone empty field would be quoted
    return buf.getvalue()[:-2]


def _json_cell(v):
    if isinstance(v, float):
        return repr(float(f"{_finite(v):.12g}"))  # what json.dumps prints for the rounded double
    return json.dumps(v)


def _column_texts(values, cell):
    """cell(v) for each value, computed once per distinct value.

    The memo keys on the class too, since True, 1 and 1.0 are equal keys
    that print differently.  A float zero is never stored, since 0.0 and
    -0.0 are equal keys too.
    """
    memo = {}
    texts = []
    for v in values:
        key = (v.__class__, v)
        text = memo.get(key)
        if text is None:
            text = cell(v)
            if v or not isinstance(v, float):
                memo[key] = text
        texts.append(text)
    return texts


def write_records(records, columns, out, fmt):
    """Write the records as CSV or JSON to out, or to stdout when out is None.

    columns names two or more distinct keys of every record.  Each
    column's distinct values are formatted once, and the whole text is
    built before out is opened, so a refused value writes nothing.
    """
    cols = [_column_texts([rec[c] for rec in records], _csv_cell if fmt == "csv" else _json_cell) for c in columns]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(columns)
        line = ",".join(["%s"] * len(columns)) + "\n"
        text = buf.getvalue() + "".join([line % row for row in zip(*cols)])
    elif records:
        keys = [json.dumps(c).replace("%", "%%") for c in columns]  # % would open a template field
        record = "  {\n" + ",\n".join([f"    {k}: %s" for k in keys]) + "\n  }"
        text = "[\n" + ",\n".join([record % row for row in zip(*cols)]) + "\n]\n"
    else:
        text = "[]\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# Largest accepted grid; it bounds the rows held in memory (figure2: 14 per point).
GRID_MAX_POINTS = 10_000


def parse_grid(text):
    """Parse 'T=a:b:n' into an increasing array of n points in (0, 1)."""
    try:
        name, rng = text.split("=", 1)
        a, b, n = rng.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise UsageError(f"bad grid spec {text!r}; expected T=a:b:n") from exc
    if name != "T":
        raise UsageError(f"unknown grid variable {name!r}")
    if n < 2 or not a < b:
        raise UsageError("grid must be strictly increasing with at least 2 points")
    if n > GRID_MAX_POINTS:
        raise UsageError(f"grid may hold at most {GRID_MAX_POINTS} points")
    if not (0.0 < a and b < 1.0):
        raise UsageError("T grid must be confined to (0, 1)")
    grid = np.linspace(a, b, n)
    if not (np.diff(grid) > 0).all():  # a and b closer than n points can resolve
        raise UsageError("grid must be strictly increasing with at least 2 points")
    return grid


# The probe parameters each state reads: its FIELDS_READ, a squeeze as s and theta. build_spec refuses the others.
PROBE_KEYS = {
    kind: tuple(key for name in read for key in (("s", "theta") if name == "squeeze" else (name,)))
    for kind, read in FIELDS_READ.items()
}


def build_spec(cfg):
    kind_map = {k.value: k for k in StateKind}
    try:
        kind = kind_map[cfg["state"]]
    except KeyError:
        raise UsageError(f"unknown state {cfg.get('state')!r}")
    probe_keys = {key for keys in PROBE_KEYS.values() for key in keys}
    unread = sorted(probe_keys.intersection(cfg).difference(PROBE_KEYS[kind]))
    if unread:
        raise UsageError(f"state {kind.value} does not read {', '.join(unread)} (it reads {', '.join(PROBE_KEYS[kind])})")
    alpha = ComplexAmplitude(cfg.get("alpha", 0.0))
    beta = ComplexAmplitude(cfg.get("beta", 0.0))
    s = cfg.get("s", 0.0)
    theta = cfg.get("theta")
    if theta is None:
        # doubly seeded bTMSS defaults to the QFI-maximizing phase
        theta = math.pi if (kind is StateKind.BTMSS and alpha.magnitude > 0 and beta.magnitude > 0) else 0.0
    return StateSpec(
        kind=kind,
        alpha=alpha,
        beta=beta,
        squeeze=SqueezeSpec(s=s, theta=theta),
        fock_n=int(cfg.get("fock_n", 1)),
    )


def build_channel(cfg, T=None):
    try:
        return ChannelConfig(
            T=cfg["T"] if T is None else T,
            T_p=cfg.get("Tp", 1.0),
            eta_p=cfg.get("eta_p", 1.0),
            eta_a=cfg.get("eta_a", 1.0),
        )
    except (KeyError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def run_report(cfg):
    spec = build_spec(cfg)
    channel = build_channel(cfg)
    rep = lambda_lossy(spec, channel)
    var_T = transmission_var(spec, channel)
    return {
        "state": spec.kind.value,
        "T": channel.T,
        "lambda": rep.lam,
        "qfi": rep.qfi,
        "qcrb": rep.qcrb,
        "n_resource": rep.n_resource,
        "method": rep.method.value,
        "strategy": strategy_for(spec).value,
        "delta2_T": var_T,
    }


def curve_rows(curves, grid):
    """Lambda rows of each (curve_id, spec, channel) curve over the T grid.

    The curves come sorted by their unique ids and the grid increases, so
    the rows come out ordered by (curve_id, T).
    """
    Ts = grid.tolist()
    rows = []
    for curve_id, spec, channel in curves:
        resource_photons(spec, channel)  # raises where Lambda is undefined
        with np.errstate(over="ignore"):  # an overflow to inf: write_records refuses it
            lams = lambda_curve(spec, channel, grid).tolist()
        rows.extend(
            {
                "curve_id": curve_id,
                "state": spec.kind.value,
                "s": spec.squeeze.s,
                "T": T,
                "T_p": channel.T_p,
                "eta_p": channel.eta_p,
                "eta_a": channel.eta_a,
                "lambda": lam,
            }
            for T, lam in zip(Ts, lams)
        )
    return rows


def sweep_rows(cfg, grid):
    spec = build_spec(cfg)
    channel = build_channel(cfg, T=grid[0])  # curve_rows sweeps T over the grid
    return curve_rows([(f"{spec.kind.value}_s{spec.squeeze.s:g}", spec, channel)], grid)


FIG2_S_VALUES = [0.0, 0.5, 1.0, 1.5, 2.0]


def _fig_spec(kind, s):
    return StateSpec(kind=kind, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=s), fock_n=1)


def figure2_rows(grid):
    """Lossless estimation functions vs T per squeezing, plus the s=2 comparison."""
    lossless = ChannelConfig()
    curves = [
        (f"{kind.value}_s{s:g}", _fig_spec(kind, s), lossless)
        for kind in (StateKind.BSMSS, StateKind.BTMSS)
        for s in FIG2_S_VALUES
    ]
    curves += [
        (f"cmp_{kind.value}", _fig_spec(kind, 2.0), lossless)
        for kind in (StateKind.BSMSS, StateKind.BTMSS, StateKind.COHERENT, StateKind.FOCK)
    ]
    return curve_rows(curves, grid)


FIG3_TP_VALUES = [0.80, 0.90, 1.0]
FIG3_S = 2.0


def figure3_rows(grid):
    """Lossy estimation functions for Fock/bSMSS/bTMSS at several T_p."""
    curves = [
        (f"{kind.value}_Tp{T_p:g}", _fig_spec(kind, FIG3_S), ChannelConfig(T_p=T_p, eta_p=0.98, eta_a=0.98))
        for kind in (StateKind.BSMSS, StateKind.BTMSS, StateKind.FOCK)
        for T_p in FIG3_TP_VALUES
    ]
    return curve_rows(curves, grid)


def run_mc(cfg):
    spec = build_spec(cfg)
    channel = build_channel(cfg)
    sampler = Sampler.EXACT if cfg.get("sampler") == "exact" else Sampler.GAUSSIAN_APPROX
    res = mc_estimate(
        spec,
        channel,
        MeasurementPlan(gain=cfg.get("gain")),
        MCConfig(trials=int(cfg.get("trials", 10000)), seed=int(cfg.get("seed", 0)), sampler=sampler),
    )
    return {
        "state": spec.kind.value,
        "T": channel.T,
        "strategy": strategy_for(spec).value,
        "empirical_var_T": res.empirical_var_T,
        "closed_form_var_T": res.closed_form_var_T,
        "z_score": res.z_score,
        "trials": res.trials,
        "seed": res.seed,
    }


def run_validate():
    ok = True
    for c in run_battery():
        status = "PASS" if c.passed else "FAIL"
        sys.stdout.write(f"{status}  {c.name}: max_err={c.max_err:.3e} tol={c.tol:.0e}\n")
        ok = ok and c.passed
    return ok


# Every flag once; a subcommand takes the flags it reads, a --config file their dests.
FLAGS = {
    "config": dict(help="JSON config file; flags override its values"),
    "state": dict(choices=[k.value for k in StateKind]),
    **{f: dict(type=float) for f in ("alpha", "beta", "s", "theta", "T", "Tp", "eta-p", "eta-a", "gain")},
    **{f: dict(type=int) for f in ("fock-n", "trials", "seed")},
    "grid": dict(help="swept variable, e.g. T=0.01:0.99:99"),
    "sampler": dict(choices=["gaussian", "exact"]),
    "out": dict(),
    "format": dict(choices=["csv", "json"]),
}
_PROBE = ("state", "alpha", "beta", "s", "theta", "fock-n")
_LOSSES = ("Tp", "eta-p", "eta-a")
_OUTPUT = ("out", "format")
COMMANDS = {
    "report": ("config", *_PROBE, "T", *_LOSSES, *_OUTPUT),
    "sweep": ("config", *_PROBE, *_LOSSES, "grid", *_OUTPUT),
    "figure2": ("config", "grid", *_OUTPUT),
    "figure3": ("config", "grid", *_OUTPUT),
    "mc": ("config", *_PROBE, "T", *_LOSSES, "trials", "seed", "gain", "sampler", *_OUTPUT),
    "validate": (),
}


def _build_parser():
    p = _Parser(prog="qcrb-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, flags in COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            sp.add_argument(f"--{flag}", **FLAGS[flag])
    return p


def _config_argv(command, path):
    """A config file's values as flags of the command, for argparse to check.

    A flag with an argparse type takes a JSON number, the others a string.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    flags = {f.replace("-", "_"): f for f in COMMANDS[command] if f != "config"}
    argv = []
    for key, value in data.items():
        if key not in flags:
            raise UsageError(f"config key {key!r} is not an option of {command}")
        numeric = "type" in FLAGS[flags[key]]
        if isinstance(value, bool) or not isinstance(value, (int, float) if numeric else str):
            raise UsageError(f"config key {key!r} must be a JSON {'number' if numeric else 'string'}, not {value!r}")
        argv.append(f"--{flags[key]}={value}")
    return argv


def _parse_args(argv):
    """The command and its settings: flags merged over the --config file's."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # the file's values go right after the command, so later flags win
        i = argv.index(args.command) + 1
        args = parser.parse_args([*argv[:i], *_config_argv(args.command, args.config), *argv[i:]])
    cfg = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config") and value is not None
    }
    return args.command, cfg


def _run(argv):
    cmd, cfg = _parse_args(argv)
    fmt = cfg.get("format", "csv")
    out = cfg.get("out")
    if cmd == "validate":
        return 0 if run_validate() else 2
    if cmd in ("report", "mc"):
        if "T" not in cfg:
            raise UsageError(f"{cmd} requires --T")
        rec = run_report(cfg) if cmd == "report" else run_mc(cfg)
        write_records([rec], list(rec.keys()), out, fmt)
        return 0
    grid = parse_grid(cfg.get("grid", "T=0.01:0.99:99"))
    if cmd == "sweep":
        if "state" not in cfg:
            raise UsageError("sweep requires --state")
        rows = sweep_rows(cfg, grid)
    elif cmd == "figure2":
        rows = figure2_rows(grid)
    else:
        rows = figure3_rows(grid)
    write_records(rows, FIGURE_COLUMNS, out, fmt)
    return 0


def main(argv=None):
    """Run one subcommand; exit 0 (validate: 2 on a failed check), or 1 with one error line.

    A library warning (the doubly seeded bTMSS off cos(Theta) = -1) becomes
    one `warning: ...` line on stderr after a result; a failed command
    prints only its error line.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            status = _run(argv)
        except (UsageError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
