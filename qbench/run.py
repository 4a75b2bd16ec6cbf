"""Run one qcrb-lab benchmark workload from a seed and print its metrics.

    python3 qbench/run.py --workload {curves,validate,mc} --seed N --seconds S --trace {0,1}

Run it from a checkout: the library is imported from ``src/`` next to
this directory, never from an installed copy.  One process, with BLAS
capped at ``nproc`` threads unless the environment already sets a count.

Workloads (inputs drawn from --seed; see ``workloads.py``):

  curves    batch: figure2, figure3 and a sweep per probe on a 999-point
            T grid, each produced and written as CSV and JSON by cli;
            points: general qfi_gaussian for 40 seeded non-bright bTMSS
            probes on 50-point grids.  fock and measurement stay idle.
  validate  batch: one full `qcrb-lab validate` battery;
            points: 10 seeded Fock-oracle points (QFI and moments).
  mc        batch: Exact-sampler `qcrb-lab mc` configurations (one
            small-seed bTMSS, coherent and Fock probes);
            points: GaussianApprox configurations for bright probes.

Passes repeat until --seconds have gone and at least three have run.
With ``--trace 0`` the last stdout line holds the end-to-end metrics:

  setup_s       median over 3 fresh processes of the time from process
                start to the first warm-up result (includes importing
                qcrb_lab)
  peak_rss_mib  peak resident memory of this process
  batch_s       wall time of a pass's batch stage
  points_per_s  items per second in a pass's points stage
                (qfi_gaussian evaluations, oracle points, MC trials)

A stage's time is the sum over its operations of each operation's
median time across passes (``workloads.stage_seconds``).

With ``--trace 1`` untraced and traced passes alternate, and the last
line holds the per-layer metrics (see ``metrics.py``); spans of the
first traced pass go to ``qbench/out/<workload>-seed<N>.spans.jsonl.gz``.
Every run also writes ``qbench/out/<workload>-seed<N>-trace<T>.json``
with the environment, every figure and any failure.

Exit status: 0 when every operation passed its check, 1 when one did
not (the result line says ``"correct": false``), 2 when the benchmark
could not start.
"""

import argparse
import ctypes
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SPAWNS = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["curves", "validate", "mc"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library():
    """Import qcrb_lab from the checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "qcrb_lab" / "__init__.py").is_file():
        print(f"qbench: no qcrb_lab sources in {src}", file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    import qcrb_lab
    import qcrb_lab.cli  # noqa: F401  (binds qcrb_lab.cli and qcrb_lab.validate)

    if not Path(qcrb_lab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"qbench: imported qcrb_lab from {qcrb_lab.__file__}, not {src}", file=sys.stderr)
        return None
    return qcrb_lab


def _blas_threads():
    """Thread count of every OpenBLAS loaded in this process, by library file."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "QCRB_LAB_THREADS": os.environ.get("QCRB_LAB_THREADS"),
        "seed": seed,
    }
    env.update({var: os.environ.get(var) for var in BLAS_THREAD_VARS})
    return env


def _spawn_setup(workload, seed, workdir, index, importtime):
    """Time a fresh process from start to its first warm-up result.

    Returns (seconds, digest of the warm-up output, child's stderr text).
    """
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    err_path = workdir / f"setup-{index}.err"
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                ready = sel.select(timeout=CHILD_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    stderr = err_path.read_text(encoding="utf-8")
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"setup probe exited {proc.returncode}: {stderr[-500:]}")
    return elapsed, line.strip(), stderr


def _import_times(stderr, metrics):
    """Cumulative import seconds per qcrb_lab module from -X importtime output."""
    cumulative = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    names = {m: "qcrb_lab" if m == "qcrb_lab" else f"qcrb_lab.{m}" for m in metrics.IMPORTS}
    missing = [n for n in names.values() if n not in cumulative]
    if missing:
        raise RuntimeError(f"no import time for {missing}")
    return {m: cumulative[n] for m, n in names.items()}


def _merge(total, part):
    for key, row in part.items():
        acc = total.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for field, value in row.items():
            acc[field] += value


@dataclass
class PassLog:
    """What a run's passes left: walls, Recorders, span aggregates, failures."""

    plain: list = field(default_factory=list)  # (wall_s, Recorder) of untraced passes
    traced: list = field(default_factory=list)  # (wall_s, Recorder) of traced passes
    by_name: dict = field(default_factory=dict)
    by_tag: dict = field(default_factory=dict)
    first_spans: list = field(default_factory=list)
    spans: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""  # sha256 over a pass's outputs; the same seed must reproduce it


def _run_passes(workload, seconds, tracer, seed):
    """Run passes for `seconds`; with a tracer, alternate traced and untraced.

    A traced run starts with an untraced pass whose figures are dropped,
    so the first pass's one-off costs do not land on either side of the
    tracing overhead.
    """
    from qbench import tracer as tracing
    from qbench import workloads

    log = PassLog()
    digests = set()
    start = time.perf_counter()
    k = 0
    while k < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = tracer is not None and k % 2 == 1
        rec = workloads.Recorder(tracer if traced else None)
        if traced:
            tracer.run_id = f"{workload.name}-seed{seed}-pass{k}"
            tracer.install()
        gc.collect()  # every pass starts from the same collector state
        t0 = time.perf_counter()
        try:
            workload.run_pass(rec)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - t0
        log.attempted += rec.attempted
        log.failures += rec.failures
        digests.add(rec.digest())
        if traced:
            log.traced.append((wall, rec))
            names, tags = tracing.aggregate(tracer.spans)
            _merge(log.by_name, names)
            _merge(log.by_tag, tags)
            log.spans += len(tracer.spans)
            if not log.first_spans:
                log.first_spans = tracer.spans
            tracer.spans = []
        elif tracer is None or k > 0:
            log.plain.append((wall, rec))
        k += 1
    if len(digests) > 1:
        log.failures.append(f"passes produced {len(digests)} different output digests")
    log.digest = min(digests)
    return log


def _write_spans(path, spans, t0):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in spans:
            rec = {"run": s.run, "id": s.id, "parent": s.parent, "name": s.name, "tag": s.tag,
                   "start": s.start - t0, "end": s.end - t0}
            fh.write(json.dumps(rec) + "\n")


def _setup_probe(lib, args, workdir):
    from qbench import workloads

    workload = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
    print(hashlib.sha256(workload.warmup()).hexdigest(), flush=True)
    return 0


def _run(lib, args, workdir):
    from qbench import metrics, workloads
    from qbench import tracer as tracing

    run_start = time.perf_counter()
    failures = []
    attempted = 0
    setup_times, imports = [], None
    spawn_digests = []
    for i in range(1 if args.trace else SETUP_SPAWNS):
        attempted += 1
        try:
            elapsed, digest, stderr = _spawn_setup(args.workload, args.seed, workdir, i, importtime=bool(args.trace))
            setup_times.append(elapsed)
            spawn_digests.append(digest)
            if args.trace:
                imports = _import_times(stderr, metrics)
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            failures.append(f"setup probe: {exc}")

    workload = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
    attempted += 1
    try:
        warm = hashlib.sha256(workload.warmup()).hexdigest()
        if any(d != warm for d in spawn_digests):
            failures.append("warm-up output differs between processes with the same seed")
    except Exception as exc:  # counted as a failed operation
        failures.append(f"warm-up: {type(exc).__name__}: {exc}")

    tracer = tracing.Tracer(lib) if args.trace else None
    log = _run_passes(workload, args.seconds, tracer, args.seed)
    failures += log.failures
    attempted += log.attempted
    plain_recs = [rec for _, rec in log.plain]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(log.plain) + len(log.traced),
        "environment": _environment(args.seed),
        "output_digest": log.digest,
        "stages": {},
        "failures": failures,
    }
    for stage in workloads.STAGES:
        samples = [x for rec in plain_recs for x in rec.samples[stage]]
        tail = metrics.tail(samples)
        report["stages"][stage] = {
            "ops": len(samples),
            "median_op_s": statistics.median(samples) if samples else None,
            "tail": None if tail is None else {"percentile": tail[0], "op_s": tail[1], "samples": tail[2]},
        }
    report["named"] = workload.named(plain_recs)

    if args.trace:
        timed_s = sum(row["incl_s"] for name, row in log.by_name.items() if name.startswith("bench."))
        passes = len(log.traced)
        values = metrics.per_layer_values(
            log.by_name, log.by_tag, tracer.counters, passes, timed_s,
            traced_s=statistics.median([w for w, _ in log.traced]),
            untraced_s=statistics.median([w for w, _ in log.plain]),
            imports=imports or dict.fromkeys(metrics.IMPORTS, 0.0),
            spans=log.spans,
        )
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        report["functions"] = {
            name: {k: v / passes for k, v in row.items()}
            for name, row in sorted({**log.by_name, **log.by_tag}.items())
        }
        _write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz", log.first_spans, run_start)
    else:
        values = {
            # a failed setup probe is already a failure; 0.0 keeps the result line valid JSON
            "setup_s": statistics.median(setup_times) if setup_times else 0.0,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "batch_s": workloads.stage_seconds(plain_recs, "batch"),
            "points_per_s": workloads.rate(plain_recs, "points"),
        }
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        report["setup_runs_s"] = setup_times

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    report["result"] = result
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    _print_summary(report, values, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _print_summary(report, values, units):
    r = report
    print(f"qbench {r['workload']} seed={r['seed']} trace={r['trace']} passes={r['passes']}")
    print("environment " + json.dumps(r["environment"], sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:45s} {values[name]:.6g} {unit}")
    for name, (value, unit) in r["named"].items():
        print(f"  {name:45s} {value:.6g} {unit}")
    for stage, st in r["stages"].items():
        if st["tail"]:
            t = st["tail"]
            print(f"  {stage} op: median {st['median_op_s']:.6g} s, p{t['percentile']:g} {t['op_s']:.6g} s"
                  f" over {t['samples']} ops")
        elif st["ops"]:
            print(f"  {stage} op: median {st['median_op_s']:.6g} s over {st['ops']} ops")
    for failure in r["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)


def main(argv=None):
    args = _parse(argv)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, nproc)
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        sys.path.pop(0)  # keep this directory's modules out of the top-level namespace
    lib = _import_library()
    if lib is None:
        return 2
    sys.path.append(str(ROOT))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            return _setup_probe(lib, args, workdir)
        return _run(lib, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
