"""Seeded workloads: inputs drawn from the seed, timed passes, and the checks.

Every workload runs the same operations in every pass, in the same
order: a fixed "batch" stage and a seeded "points" stage, their
operations interleaved (``interleave``).  An operation is timed around
the call into qcrb_lab only; its check runs afterwards, untimed.  A
failed operation (it raised, or missed its check) is counted and the
pass goes on.  Each check returns the bytes the operation produced, and
a pass's digest over them must repeat in every pass and every process.

Sizes (grid lengths, n_max values, trial counts) are fixed; the seed
draws only values that leave the cost of an operation unchanged
(transmissions, losses, squeezing, seeds), so figures from different
seeds are comparable.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass
from functools import partial

from . import reference

STAGES = ("batch", "points")


class CheckFailed(Exception):
    """An operation returned a result that misses its correctness check."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _rel(got, want):
    return abs(got - want) / abs(want)


def interleave(*stages):
    """Merge lists of operations, spreading each evenly over the pass.

    Every stage is then timed across the whole pass rather than in one
    block, so a slow spell of the machine weighs on the stages alike.
    """
    keyed = [((i + 0.5) / len(ops), k, op) for k, ops in enumerate(stages) for i, op in enumerate(ops)]
    return [op for _, _, op in sorted(keyed, key=lambda x: x[:2])]


def stage_seconds(recs, stage):
    """A pass's time in one stage: the sum over its operations of each one's
    median time across passes.

    Every pass runs the same operations in the same order, so a slow
    spell that hits part of one pass moves no median.  If a failed
    operation left passes of unequal length, the median of the pass
    totals is used instead.
    """
    runs = [r.samples[stage] for r in recs]
    if len({len(ops) for ops in runs}) != 1:
        return statistics.median(r.stage_s[stage] for r in recs)
    return sum(statistics.median(op) for op in zip(*runs))


def rate(recs, *stages):
    """Items per second across the given stages (see stage_seconds)."""
    seconds = sum(stage_seconds(recs, s) for s in stages)
    return sum(recs[0].items[s] for s in stages) / seconds if seconds > 0 else 0.0


class Recorder:
    """Times, traces and checks the operations of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stage_s = dict.fromkeys(STAGES, 0.0)
        self.items = dict.fromkeys(STAGES, 0)
        self.samples = {stage: [] for stage in STAGES}
        self.attempted = 0
        self.failures = []
        self._digest = hashlib.sha256()

    def op(self, stage, label, produce, check, items=1):
        self.attempted += 1
        root = self.tracer.root(f"bench.{label}") if self.tracer else contextlib.nullcontext()
        try:
            start = time.perf_counter()
            with root:
                out = produce()
            elapsed = time.perf_counter() - start
            self._digest.update(check(out))
        except Exception as exc:  # an operation's failure is counted; the run goes on
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        self.stage_s[stage] += elapsed
        self.items[stage] += items
        self.samples[stage].append(elapsed)

    def digest(self):
        return self._digest.hexdigest()


# --------------------------------------------------------------------- curves
FINE_POINTS = 999
QFI_STATES = 40
QFI_T_POINTS = 50
FORMATS = ("csv", "json")
FIGURE2_CURVES = 14
FIGURE3_CURVES = 9


@dataclass(frozen=True)
class QfiState:
    alpha: complex
    beta: complex
    s: float
    theta: float
    T_p: float
    eta_p: float
    grid: tuple


class Curves:
    """Closed-form Lambda curves through cli, and the general Gaussian QFI.

    The batch stage is figure2, figure3 and one sweep per probe on a fine
    T grid, each produced and written as CSV and as JSON.  The points
    stage evaluates qfi_gaussian (full four-term formula) for seeded,
    non-bright bTMSS probes on a coarse grid, with probe-arm losses only,
    where the exact lossless QFI gives an independent reference.
    """

    name = "curves"

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.workdir = workdir
        rng = random.Random(seed)
        lo, hi = rng.uniform(0.001, 0.01), rng.uniform(0.99, 0.999)
        self.grid = lib.cli.parse_grid(f"T={lo!r}:{hi!r}:{FINE_POINTS}")
        self.sweeps = [_sweep_cfg(rng, kind) for kind in ("coherent", "bsmss", "btmss", "fock")]
        self.qfi_states = []
        for _ in range(QFI_STATES):
            lo, hi = rng.uniform(0.02, 0.05), rng.uniform(0.90, 0.95)
            self.qfi_states.append(
                QfiState(
                    alpha=_phasor(rng, 0.5, 5.0),
                    beta=_phasor(rng, 0.0, 2.0),
                    s=rng.uniform(0.3, 1.5),
                    theta=rng.uniform(-math.pi, math.pi),
                    T_p=rng.uniform(0.8, 1.0),
                    eta_p=rng.uniform(0.8, 1.0),
                    grid=tuple(lo + (hi - lo) * i / (QFI_T_POINTS - 1) for i in range(QFI_T_POINTS)),
                )
            )

    def _curves(self):
        cli, grid = self.lib.cli, self.grid
        yield "figure2", FIGURE2_CURVES, partial(cli.figure2_rows, grid)
        yield "figure3", FIGURE3_CURVES, partial(cli.figure3_rows, grid)
        for cfg in self.sweeps:
            yield f"sweep_{cfg['state']}", 1, partial(cli.sweep_rows, cfg, grid)

    def _write(self, make_rows, path, fmt):
        rows = make_rows()
        self.lib.cli.write_records(rows, self.lib.cli.FIGURE_COLUMNS, str(path), fmt)
        return rows

    def named(self, recs):
        return {
            "lambda_points_per_s": (rate(recs, "batch"), "1/s"),
            "gaussian_qfi_points_per_s": (rate(recs, "points"), "1/s"),
        }

    def warmup(self):
        path = self.workdir / "warmup.csv"
        rows = self._write(partial(self.lib.cli.sweep_rows, self.sweeps[0], self.grid), path, "csv")
        return self._check_curve(rows, 1, path, "csv")

    def run_pass(self, rec):
        batch = []
        for label, curves, make_rows in self._curves():
            for fmt in FORMATS:
                path = self.workdir / f"{label}.{fmt}"
                batch.append((
                    "batch",
                    f"{label}.{fmt}",
                    partial(self._write, make_rows, path, fmt),
                    partial(self._check_curve, curves=curves, path=path, fmt=fmt),
                    curves * len(self.grid),
                ))
        points = [
            ("points", "qfi_gaussian", partial(self._qfi, st, T), partial(_check_qfi, st, T), 1)
            for st in self.qfi_states
            for T in st.grid
        ]
        for op in interleave(batch, points):
            rec.op(*op)

    def _qfi(self, st, T):
        lib = self.lib
        spec = lib.StateSpec(
            lib.StateKind.BTMSS,
            alpha=lib.ComplexAmplitude.from_complex(st.alpha),
            beta=lib.ComplexAmplitude.from_complex(st.beta),
            squeeze=lib.SqueezeSpec(s=st.s, theta=st.theta),
        )
        channel = lib.ChannelConfig(T=T, T_p=st.T_p, eta_p=st.eta_p)
        return lib.qfi_gaussian(lib.ParamFamily(spec, channel), T)

    def _check_curve(self, rows, curves, path, fmt):
        n = len(self.grid)
        _require(len(rows) == curves * n, f"{len(rows)} rows, expected {curves * n}")
        _require(len({r["curve_id"] for r in rows}) == curves, "wrong number of curves")
        for i, r in enumerate(rows):
            T = r["T"]
            _require(T == self.grid[i % n], f"row {i}: T={T} off the grid")
            want = reference.lam_closed(r["state"], r["s"], T, r["T_p"], r["eta_p"], r["eta_a"])
            _require(_rel(r["lambda"], want) <= 1e-12, f"row {i}: lambda={r['lambda']!r}, closed form {want!r}")
            _require(r["lambda"] >= reference.floor(T) * (1.0 - 1e-12), f"row {i}: lambda below T - T^2")
        data = path.read_bytes()
        if fmt == "csv":
            lines = list(csv.reader(io.StringIO(data.decode("utf-8"))))
            _require(lines[0] == self.lib.cli.FIGURE_COLUMNS, "CSV header differs from FIGURE_COLUMNS")
            written = [float(line[-1]) for line in lines[1:]]
        else:
            written = [rec["lambda"] for rec in json.loads(data)]
        _require(len(written) == len(rows), f"{path.name}: {len(written)} records for {len(rows)} rows")
        for i, (w, r) in enumerate(zip(written, rows)):
            # 12 significant digits on disk
            _require(_rel(w, r["lambda"]) <= 1e-11, f"{path.name} record {i}: {w!r} != {r['lambda']!r}")
        return data


def _phasor(rng, lo, hi):
    mag, phase = rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi)
    return mag * complex(math.cos(phase), math.sin(phase))


def _sweep_cfg(rng, kind):
    cfg = {
        "state": kind,
        "Tp": rng.uniform(0.8, 1.0),
        "eta_p": rng.uniform(0.8, 1.0),
        "eta_a": rng.uniform(0.8, 1.0),
    }
    if kind == "fock":
        cfg["fock_n"] = rng.randint(1, 50)
    else:
        cfg["alpha"] = rng.uniform(10.0, 1e4)
    if kind in ("bsmss", "btmss"):
        cfg["s"] = rng.uniform(0.0, 2.0)
    return cfg


def _check_qfi(st, T, rep):
    want = reference.btmss_qfi_probe_loss(st.alpha, st.beta, st.s, st.theta, T, st.T_p, st.eta_p)
    _require(_rel(rep.qfi, want) <= 1e-8, f"T={T!r}: qfi={rep.qfi!r}, exact {want!r}")
    _require(rep.lam >= reference.floor(T) * (1.0 - 1e-9), f"T={T!r}: lambda below T - T^2")
    return repr((rep.qfi, rep.lam)).encode()


# ------------------------------------------------------------------- validate
TWO_MODE_N_MAX = [20, 22, 22, 24]
QFI_TOL = 1e-5  # the battery's Fock-oracle tolerance
MOMENT_TOL = 1e-8  # the battery's moments tolerance
MOMENT_FIELDS = ("mean_p", "var_p", "mean_a", "var_a", "cov_pa")


@dataclass(frozen=True)
class OraclePoint:
    kind: str  # fock, coherent, vtmss, btmss
    spec: object
    channel: object
    n_max: int


class Validate:
    """One full `qcrb-lab validate` battery amid seeded Fock-oracle points.

    Each point is the oracle QFI (eigendecomposition with a central
    difference) plus photon moments by basis summation, checked against
    fock_qfi_lossy or qfi_gaussian and the Gaussian (Wick) moments.
    Single-mode points draw n_max; the two-mode n_max values are a fixed
    set the seed only shuffles, since their cost grows as n_max^6.
    """

    name = "validate"

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)

        def channel():
            return lib.ChannelConfig(
                T=rng.uniform(0.1, 0.9),
                T_p=rng.uniform(0.8, 1.0),
                eta_p=rng.uniform(0.8, 1.0),
                eta_a=rng.uniform(0.8, 1.0),
            )

        def amp(lo, hi):
            return lib.ComplexAmplitude(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))

        points = []
        for _ in range(4):
            n = rng.randint(1, 5)
            spec = lib.StateSpec(lib.StateKind.FOCK, fock_n=n)
            points.append(OraclePoint("fock", spec, channel(), n + 2 + rng.randint(0, 3)))
        for _ in range(2):
            spec = lib.StateSpec(lib.StateKind.COHERENT, alpha=amp(1.0, 2.0))
            points.append(OraclePoint("coherent", spec, channel(), rng.randint(26, 34)))
        n_maxes = list(TWO_MODE_N_MAX)
        rng.shuffle(n_maxes)
        for kind, n_max in zip(("vtmss", "vtmss", "btmss", "btmss"), n_maxes):
            if kind == "vtmss":
                squeeze = lib.SqueezeSpec(s=rng.uniform(0.4, 0.6))
                spec = lib.StateSpec(lib.StateKind.BTMSS, squeeze=squeeze)
            else:
                # at n_max = 20 these ranges keep the truncated tail mass below 2e-11 for every phase
                squeeze = lib.SqueezeSpec(s=rng.uniform(0.3, 0.4), theta=rng.uniform(-math.pi, math.pi))
                spec = lib.StateSpec(lib.StateKind.BTMSS, alpha=amp(0.3, 0.6), beta=amp(0.0, 0.4), squeeze=squeeze)
            points.append(OraclePoint(kind, spec, channel(), n_max))
        self.points = points
        squeeze = lib.SqueezeSpec(s=rng.uniform(0.2, 0.3))
        self.warm_point = OraclePoint("vtmss", lib.StateSpec(lib.StateKind.BTMSS, squeeze=squeeze), channel(), 12)

    def named(self, recs):
        return {
            "validate_s": (stage_seconds(recs, "batch"), "s"),
            "oracle_points_per_s": (rate(recs, "points"), "1/s"),
        }

    def warmup(self):
        return self._check_point(self.warm_point, self._oracle(self.warm_point))

    def run_pass(self, rec):
        battery = [("batch", "validate", self._battery, _check_battery, 1)]
        points = [("points", f"oracle.{p.kind}", partial(self._oracle, p), partial(self._check_point, p), 1)
                  for p in self.points]
        for op in interleave(battery, points):
            rec.op(*op)

    def _battery(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.lib.cli.main(["validate"])
        return status, out.getvalue()

    def _oracle(self, p):
        fock = self.lib.fock
        qfi = fock.oracle_qfi(
            lambda t: fock.channel_density(p.spec, p.channel, n_max=p.n_max, T=t), p.channel.T
        )
        return qfi, fock.oracle_moments(fock.channel_density(p.spec, p.channel, n_max=p.n_max))

    def _check_point(self, p, result):
        lib = self.lib
        qfi, moments = result
        ch = p.channel
        if p.kind == "fock":
            n = p.spec.fock_n
            want = lib.fock_qfi_lossy(n, ch).qfi
            _require(qfi <= lib.fisher_max(ch.T_p * n, ch.T) * (1.0 + QFI_TOL), "QFI above n_r / (T - T^2)")
            mean, var = reference.thinned_fock_moments(n, ch.probe_transmission)
            ref = lib.Moments(mean_p=mean, var_p=var)
        else:
            want = lib.qfi_gaussian(lib.ParamFamily(p.spec, ch), ch.T).qfi
            ref = lib.photon_moments(lib.apply_channel(lib.make_source(p.spec), ch))
        _require(_rel(qfi, want) <= QFI_TOL, f"{p.kind} n_max={p.n_max}: oracle QFI {qfi!r}, reference {want!r}")
        for field in MOMENT_FIELDS:
            got, exp = getattr(moments, field), getattr(ref, field)
            _require(abs(got - exp) <= MOMENT_TOL, f"{p.kind} n_max={p.n_max}: {field} {got!r} vs {exp!r}")
        return repr((qfi, moments)).encode()


def _check_battery(result):
    status, text = result
    lines = text.splitlines()
    _require(status == 0, f"validate exited {status}")
    _require(len(lines) == 8 and all(line.startswith("PASS") for line in lines), f"battery output: {text!r}")
    return text.encode()


# ------------------------------------------------------------------------ mc
EXACT_BTMSS_TRIALS = 10**6
TRIALS = 6 * 10**6
Z_MAX = 5.0


class MonteCarlo:
    """`qcrb-lab mc` configurations through cli.run_mc.

    The batch stage holds the Exact-sampler configurations: one
    small-seed bTMSS (10^6 trials; its joint photon-count distribution
    comes from fock's dense loss channel at n_max = 40), three coherent
    and three Fock probes.  The points stage holds GaussianApprox
    configurations for bright coherent, bSMSS and bTMSS probes.  Seeded
    bTMSS ranges keep the intensity difference close enough to normal
    that |z| < 5 is a sound check.
    """

    name = "mc"

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)

        def cfg(state, sampler, trials, **kw):
            c = {
                "state": state,
                "T": rng.uniform(0.15, 0.9),
                "Tp": rng.uniform(0.9, 1.0),
                "eta_p": rng.uniform(0.9, 1.0),
                "eta_a": rng.uniform(0.9, 1.0),
                "trials": trials,
                "seed": rng.randrange(2**31),
                "sampler": sampler,
            }
            c.update(kw)
            return c

        self.exact = [
            cfg("btmss", "exact", EXACT_BTMSS_TRIALS, alpha=rng.uniform(1.2, 1.5), s=rng.uniform(0.3, 0.4),
                theta=math.pi, T=rng.uniform(0.5, 0.9)),
        ]
        self.exact += [cfg("coherent", "exact", TRIALS, alpha=rng.uniform(20.0, 60.0)) for _ in range(3)]
        self.exact += [
            cfg("fock", "exact", TRIALS, fock_n=rng.randint(8, 16), T=rng.uniform(0.2, 0.9), Tp=rng.uniform(0.8, 1.0),
                eta_p=rng.uniform(0.8, 1.0))
            for _ in range(3)
        ]
        self.approx = [cfg("coherent", "gaussian", TRIALS, alpha=rng.uniform(200.0, 1000.0))]
        self.approx += [
            # amplitude-squeezed (theta = 0): the mean drops as alpha^2 exp(-2s), so the seed stays brighter
            cfg("bsmss", "gaussian", TRIALS, alpha=rng.uniform(1000.0, 3000.0), s=rng.uniform(0.0, 1.5))
            for _ in range(2)
        ]
        self.approx += [
            cfg("btmss", "gaussian", TRIALS, alpha=rng.uniform(200.0, 1000.0), s=rng.uniform(0.5, 1.5), theta=math.pi)
            for _ in range(2)
        ]
        self.warm = cfg("coherent", "gaussian", 10**5, alpha=rng.uniform(200.0, 1000.0))

    def named(self, recs):
        return {
            "mc_trials_per_s": (rate(recs, "batch", "points"), "1/s"),
            "exact_trials_per_s": (rate(recs, "batch"), "1/s"),
            "gaussian_approx_trials_per_s": (rate(recs, "points"), "1/s"),
        }

    def warmup(self):
        return _check_mc(self.warm, self.lib.cli.run_mc(self.warm))

    def run_pass(self, rec):
        stages = [
            [
                (stage, f"mc.{c['sampler']}.{c['state']}", partial(self.lib.cli.run_mc, c), partial(_check_mc, c),
                 c["trials"])
                for c in configs
            ]
            for stage, configs in (("batch", self.exact), ("points", self.approx))
        ]
        for op in interleave(*stages):
            rec.op(*op)


def _check_mc(cfg, rec):
    z = rec["z_score"]
    _require(rec["trials"] == cfg["trials"], f"{rec['trials']} trials run, {cfg['trials']} asked")
    _require(math.isfinite(rec["empirical_var_T"]) and rec["closed_form_var_T"] > 0, "non-finite variance")
    _require(abs(z) < Z_MAX, f"{cfg['state']}/{cfg['sampler']} seed={cfg['seed']}: z={z:.3f}")
    return repr(sorted(rec.items())).encode()


WORKLOADS = {w.name: w for w in (Curves, Validate, MonteCarlo)}
