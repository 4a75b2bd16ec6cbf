"""Self-tests of the benchmark harness (fast; no timed passes).

    python3 -m pytest qbench
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qcrb_lab  # noqa: E402
import qcrb_lab.cli  # noqa: E402,F401
from qcrb_lab import ChannelConfig, ComplexAmplitude, SqueezeSpec, StateKind, StateSpec  # noqa: E402

from qbench import metrics, reference, workloads  # noqa: E402
from qbench.tracer import Span, Tracer, aggregate  # noqa: E402

UNIT_RE = r"[A-Za-z0-9_/%.-]{1,16}"


def _inputs(workload):
    return repr({k: v for k, v in vars(workload).items() if k not in ("lib", "workdir")})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_inputs_are_deterministic(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = _inputs(make(qcrb_lab, 7, tmp_path))
    assert _inputs(make(qcrb_lab, 7, tmp_path)) == first
    assert _inputs(make(qcrb_lab, 8, tmp_path)) != first


def test_metric_names_and_units_are_well_formed():
    names = [n for n, *_ in metrics.END_TO_END] + [n for n, *_ in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name
    units = [u for _, u, *_ in metrics.END_TO_END] + [u for _, u, *_ in metrics.PER_LAYER]
    for unit in units:
        assert re.fullmatch(UNIT_RE, unit), unit
    assert any(n == "setup_s" and u == "s" and b == "lower" for n, u, b, _ in metrics.END_TO_END)
    assert {b for *_, b, _ in metrics.END_TO_END} | {b for *_, b in metrics.PER_LAYER} <= {"higher", "lower"}


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = metrics.benchmark_spec()
    assert spec["end_to_end"] == emitted["end_to_end"]
    assert spec["per_layer"] == emitted["per_layer"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


CHANNELS = [
    ChannelConfig(T=0.3),
    ChannelConfig(T=0.9, T_p=0.9, eta_p=0.98, eta_a=0.98),
    ChannelConfig(T=0.55, T_p=0.83, eta_p=0.91, eta_a=0.6),
]
SPECS = [
    StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1e3)),
    StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=1.3)),
    StateSpec(StateKind.BTMSS, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=0.7, theta=math.pi)),
    StateSpec(StateKind.FOCK, fock_n=3),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
@pytest.mark.parametrize("ch", CHANNELS, ids=["lossless", "fig3", "lossy"])
def test_independent_closed_forms_match_lambda_lossy(spec, ch):
    got = qcrb_lab.lambda_lossy(spec, ch).lam
    want = reference.lam_closed(spec.kind.value, spec.squeeze.s, ch.T, ch.T_p, ch.eta_p, ch.eta_a)
    assert abs(got - want) <= 1e-12 * want
    assert got >= reference.floor(ch.T)


def test_exact_btmss_qfi_matches_library():
    alpha, beta = ComplexAmplitude(2.0, 0.4), ComplexAmplitude(1.5, -1.1)
    squeeze = SqueezeSpec(s=0.9, theta=2.0)
    for T in (0.1, 0.5, 0.93):
        want = qcrb_lab.qfi_btmss_full(alpha, beta, squeeze, T)
        got = reference.btmss_qfi_lossless(alpha.value, beta.value, 0.9, 2.0, T)
        assert abs(got - want) <= 1e-12 * want


def test_tracer_catches_calls_through_every_namespace():
    tracer = Tracer(qcrb_lab)
    original = qcrb_lab.qfi.lambda_lossy
    tracer.install()
    try:
        assert qcrb_lab.validate.lambda_lossy is not original
        qcrb_lab.validate.lambda_lossy(SPECS[2], CHANNELS[1])  # outside a root: not recorded
        assert tracer.spans == []
        with tracer.root("bench.op"):
            qcrb_lab.validate.lambda_lossy(SPECS[2], CHANNELS[1])
    finally:
        tracer.uninstall()
    assert qcrb_lab.validate.lambda_lossy is original
    assert qcrb_lab.qfi.make_source is qcrb_lab.gaussian.make_source
    by_id = {s.id: s for s in tracer.spans}
    names = {s.name: s for s in tracer.spans}
    assert {"bench.op", "qfi.lambda_lossy", "qfi.stimulated_photons", "gaussian.make_source"} <= set(names)
    assert by_id[names["qfi.lambda_lossy"].parent].name == "bench.op"


def test_self_time_subtracts_children():
    spans = [
        Span("r", 1, 0, "bench.op", None, 0.0, 10.0),
        Span("r", 2, 1, "qfi.a", None, 1.0, 5.0),
        Span("r", 3, 2, "gaussian.b", "x", 2.0, 3.0),
    ]
    by_name, by_tag = aggregate(spans)
    assert by_name["bench.op"]["self_s"] == 6.0
    assert by_name["qfi.a"]["self_s"] == 3.0
    assert by_name["gaussian.b"]["incl_s"] == 1.0
    assert by_tag["gaussian.b[x]"]["calls"] == 1


def test_tail_needs_ten_samples_beyond():
    assert metrics.tail(list(range(19))) is None
    assert metrics.tail(list(range(20)))[0] == 50.0
    q, value, n = metrics.tail(list(range(1, 1001)))
    assert (q, value, n) == (99.0, 990, 1000)


def test_interleave_keeps_each_stage_in_order_and_spreads_it():
    merged = workloads.interleave(["b0", "b1"], [f"p{i}" for i in range(6)])
    assert merged == ["p0", "b0", "p1", "p2", "p3", "b1", "p4", "p5"]
    assert workloads.interleave(["b0"], []) == ["b0"]


def test_recorder_counts_failed_operations():
    rec = workloads.Recorder()
    rec.op("batch", "ok", lambda: 1, lambda out: b"1")
    rec.op("batch", "raises", lambda: 1 / 0, lambda out: b"")
    rec.op("points", "misses", lambda: 2, lambda out: workloads._require(out == 3, "wrong"))
    assert rec.attempted == 3
    assert len(rec.failures) == 2
    assert rec.items == {"batch": 1, "points": 0}


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "qbench", tmp_path / "qbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", "curves", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""
