"""Command-line front end: reports, sweeps, figure data, Monte Carlo, validation.

Emits CSV (UTF-8, LF, header row) or JSON (array of records); numbers are
serialized with 12 significant digits so identical configurations produce
byte-identical output.
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .gaussian import ChannelConfig, ComplexAmplitude, SqueezeSpec, StateKind, StateSpec
from .measurement import (
    MCConfig,
    MeasurementPlan,
    Sampler,
    Strategy,
    mc_estimate,
    transmission_var_diff,
    transmission_var_intensity,
)
from .qfi import lambda_lossy, lambda_pure
from .validate import run_battery

FIGURE_COLUMNS = ["curve_id", "state", "s", "T", "T_p", "eta_p", "eta_a", "lambda"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_value(v):
    if isinstance(v, float):
        return float(f"{v:.12g}")
    return v


def write_records(records, columns, out, fmt):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec[c]) for c in columns])
        text = buf.getvalue()
    else:
        text = json.dumps(
            [{c: _json_value(rec[c]) for c in columns} for rec in records],
            indent=2,
        )
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


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
    if not (0.0 < a and b < 1.0):
        raise UsageError("T grid must be confined to (0, 1)")
    return np.linspace(a, b, n)


def build_spec(cfg):
    kind_map = {k.value: k for k in StateKind}
    try:
        kind = kind_map[cfg["state"]]
    except KeyError:
        raise UsageError(f"unknown state {cfg.get('state')!r}")
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
    if spec.kind is StateKind.BTMSS:
        var_T = transmission_var_diff(spec, channel)
        strategy = Strategy.INTENSITY_DIFF.value
    else:
        var_T = transmission_var_intensity(spec, channel)
        strategy = Strategy.INTENSITY.value
    return {
        "state": spec.kind.value,
        "T": channel.T,
        "lambda": rep.lam,
        "qfi": rep.qfi,
        "qcrb": rep.qcrb,
        "n_resource": rep.n_resource,
        "method": rep.method.value,
        "strategy": strategy,
        "delta2_T": var_T,
    }


def _lambda_row(curve_id, state_name, spec, channel):
    rep = lambda_lossy(spec, channel)
    return {
        "curve_id": curve_id,
        "state": state_name,
        "s": spec.squeeze.s,
        "T": channel.T,
        "T_p": channel.T_p,
        "eta_p": channel.eta_p,
        "eta_a": channel.eta_a,
        "lambda": rep.lam,
    }


def sweep_rows(cfg, grid):
    spec = build_spec(cfg)
    curve_id = f"{spec.kind.value}_s{spec.squeeze.s:g}"
    rows = [
        _lambda_row(curve_id, spec.kind.value, spec, build_channel(cfg, T=T))
        for T in grid
    ]
    rows.sort(key=lambda r: (r["curve_id"], r["T"]))
    return rows


FIG2_S_VALUES = [0.0, 0.5, 1.0, 1.5, 2.0]


def _fig_spec(kind, s):
    if kind is StateKind.FOCK:
        return StateSpec(kind=kind, fock_n=1)
    if kind is StateKind.COHERENT:
        return StateSpec(kind=kind, alpha=ComplexAmplitude(1e3))
    return StateSpec(kind=kind, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=s))


def figure2_rows(grid):
    """Lossless estimation functions vs T per squeezing, plus the s=2 comparison."""
    curves = []
    for kind in (StateKind.BTMSS, StateKind.BSMSS):
        for s in FIG2_S_VALUES:
            curves.append((f"{kind.value}_s{s:g}", kind, s))
    for kind in (StateKind.COHERENT, StateKind.BTMSS, StateKind.BSMSS, StateKind.FOCK):
        curves.append((f"cmp_{kind.value}", kind, 2.0))

    rows = []
    for curve_id, kind, s in curves:
        spec = _fig_spec(kind, s)
        for T in grid:
            rows.append(
                {
                    "curve_id": curve_id,
                    "state": kind.value,
                    "s": 0.0 if kind in (StateKind.COHERENT, StateKind.FOCK) else s,
                    "T": float(T),
                    "T_p": 1.0,
                    "eta_p": 1.0,
                    "eta_a": 1.0,
                    "lambda": lambda_pure(spec, float(T)),
                }
            )
    rows.sort(key=lambda r: (r["curve_id"], r["T"]))
    return rows


FIG3_TP_VALUES = [1.0, 0.90, 0.80]
FIG3_S = 2.0


def figure3_rows(grid):
    """Lossy estimation functions for Fock/bSMSS/bTMSS at several T_p."""
    curves = []
    for kind in (StateKind.FOCK, StateKind.BSMSS, StateKind.BTMSS):
        for T_p in FIG3_TP_VALUES:
            curves.append((f"{kind.value}_Tp{T_p:g}", kind, T_p))

    rows = []
    for curve_id, kind, T_p in curves:
        spec = _fig_spec(kind, FIG3_S)
        for T in grid:
            ch = ChannelConfig(T=float(T), T_p=T_p, eta_p=0.98, eta_a=0.98)
            rows.append(_lambda_row(curve_id, kind.value, spec, ch))
    rows.sort(key=lambda r: (r["curve_id"], r["T"]))
    return rows


def run_mc(cfg):
    spec = build_spec(cfg)
    channel = build_channel(cfg)
    strategy = (
        Strategy.INTENSITY_DIFF if spec.kind is StateKind.BTMSS else Strategy.INTENSITY
    )
    sampler = (
        Sampler.EXACT
        if cfg.get("sampler", "gaussian") == "exact"
        else Sampler.GAUSSIAN_APPROX
    )
    res = mc_estimate(
        spec,
        channel,
        MeasurementPlan(strategy=strategy, gain=cfg.get("gain")),
        MCConfig(trials=int(cfg.get("trials", 10000)), seed=int(cfg.get("seed", 0)), sampler=sampler),
    )
    return {
        "state": spec.kind.value,
        "T": channel.T,
        "strategy": strategy.value,
        "empirical_var_T": res.empirical_var_T,
        "closed_form_var_T": res.closed_form_var_T,
        "z_score": res.z_score,
        "trials": res.trials,
        "seed": res.seed,
    }


def run_validate(perturb_sigma=0.0, include_mc=True, stream=None):
    stream = stream or sys.stdout
    checks = run_battery(perturb_sigma=perturb_sigma, include_mc=include_mc)
    ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        stream.write(f"{status}  {c.name}: max_err={c.max_err:.3e} tol={c.tol:.0e}\n")
        ok = ok and c.passed
    return ok


def _build_parser():
    p = _Parser(prog="qcrb-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("report", "sweep", "figure2", "figure3", "mc", "validate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--state", choices=[k.value for k in StateKind])
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--s", type=float)
        sp.add_argument("--theta", type=float)
        sp.add_argument("--fock-n", dest="fock_n", type=int)
        sp.add_argument("--T", type=float)
        sp.add_argument("--Tp", type=float)
        sp.add_argument("--eta-p", dest="eta_p", type=float)
        sp.add_argument("--eta-a", dest="eta_a", type=float)
        sp.add_argument("--grid", help="swept variable, e.g. T=0.01:0.99:99")
        sp.add_argument("--trials", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--gain", type=float)
        sp.add_argument("--sampler", choices=["gaussian", "exact"])
        sp.add_argument("--out")
        sp.add_argument("--format", choices=["csv", "json"], default=None)
        if name == "validate":
            sp.add_argument("--perturb-sigma", type=float, default=0.0, help=argparse.SUPPRESS)
            sp.add_argument("--skip-mc", action="store_true", help=argparse.SUPPRESS)
    return p


def _merge_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    return cfg


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        fmt = cfg.get("format", "csv")
        out = cfg.get("out")
        cmd = args.command
        if cmd == "validate":
            ok = run_validate(
                perturb_sigma=cfg.get("perturb_sigma", 0.0),
                include_mc=not cfg.get("skip_mc", False),
            )
            return 0 if ok else 2
        if cmd == "report":
            if "T" not in cfg:
                raise UsageError("report requires --T")
            rec = run_report(cfg)
            write_records([rec], list(rec.keys()), out, fmt)
            return 0
        if cmd == "mc":
            if "T" not in cfg:
                raise UsageError("mc requires --T")
            rec = run_mc(cfg)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
