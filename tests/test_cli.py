"""Tests for the command-line front end."""

import csv
import io
import json
import math

import numpy as np
import pytest

from qcrb_lab import cli, validate
from qcrb_lab.gaussian import ChannelConfig, StateKind
from qcrb_lab.measurement import MAX_TRIALS
from qcrb_lab.qfi import lambda_lossy


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridParsing:
    def test_roundtrip(self):
        grid = cli.parse_grid("T=0.1:0.9:5")
        assert np.allclose(grid, [0.1, 0.3, 0.5, 0.7, 0.9])

    @pytest.mark.parametrize(
        "bad",
        [
            "T=0.9:0.1:5",
            "T=0:0.9:5",
            "T=0.1:1.0:5",
            "T=0.1:0.9:1",
            "x=0.1:0.9:5",
            "T=a:b:c",
            "nonsense",
            f"T=0.1:0.9:{cli.GRID_MAX_POINTS + 1}",
            "T=0.5:0.5000000000000001:3",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(cli.UsageError):
            cli.parse_grid(bad)


class TestReport:
    def test_coherent_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "report", "--state", "coherent", "--alpha", "100", "--T", "0.5"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["lambda"]) == pytest.approx(0.5)
        assert float(rows[0]["n_resource"]) == pytest.approx(1e4)

    def test_btmss_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "report",
            "--state",
            "btmss",
            "--alpha",
            "1000",
            "--s",
            "2",
            "--T",
            "0.99",
            "--format",
            "json",
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["lambda"] == pytest.approx(0.045790275503560171, rel=1e-10)
        # saturation: measured variance * resources = lambda
        assert rec["delta2_T"] * rec["n_resource"] == pytest.approx(
            rec["lambda"], rel=1e-9
        )

    def test_missing_T_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "report", "--state", "coherent", "--alpha", "10")
        assert code == 1
        assert "error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "report", "--bogus", "1")
        assert code == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rep.csv"
        code, out, _ = run_cli(
            capsys,
            "report",
            "--state",
            "fock",
            "--fock-n",
            "5",
            "--T",
            "0.4",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert "lambda" in text.splitlines()[0]

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": "coherent", "alpha": 10.0, "T": 0.3}))
        code, out, _ = run_cli(
            capsys, "report", "--config", str(cfg), "--T", "0.6", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)[0]["T"] == pytest.approx(0.6)


class TestSweepAndFigures:
    def test_sweep_sorted_and_complete(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--state",
            "bsmss",
            "--alpha",
            "1000",
            "--s",
            "1",
            "--grid",
            "T=0.1:0.9:9",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        ts = [float(r["T"]) for r in rows]
        assert ts == sorted(ts)

    def test_figure2_curve_inventory(self, capsys):
        code, out, _ = run_cli(capsys, "figure2", "--grid", "T=0.1:0.9:5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        curves = {r["curve_id"] for r in rows}
        assert len(curves) == 14  # 2 kinds x 5 s values + 4 comparison curves
        assert {"cmp_coherent", "cmp_btmss", "cmp_bsmss", "cmp_fock"} <= curves
        assert len(rows) == 14 * 5

    def test_figure2_ordering_at_every_point(self, capsys):
        code, out, _ = run_cli(capsys, "figure2", "--grid", "T=0.05:0.95:10")
        rows = list(csv.DictReader(io.StringIO(out)))
        by_curve = {}
        for r in rows:
            by_curve.setdefault(r["curve_id"], {})[float(r["T"])] = float(r["lambda"])
        for T, lam_coh in by_curve["cmp_coherent"].items():
            assert by_curve["cmp_fock"][T] < by_curve["cmp_bsmss"][T]
            assert by_curve["cmp_bsmss"][T] < by_curve["cmp_btmss"][T]
            assert by_curve["cmp_btmss"][T] < lam_coh

    def test_figure3_losses_raise_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "figure3", "--grid", "T=0.1:0.9:5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        by_curve = {}
        for r in rows:
            by_curve.setdefault(r["curve_id"], {})[float(r["T"])] = float(r["lambda"])
        for kind in ("fock", "bsmss", "btmss"):
            for T in by_curve[f"{kind}_Tp1"]:
                assert (
                    by_curve[f"{kind}_Tp1"][T]
                    < by_curve[f"{kind}_Tp0.9"][T]
                    < by_curve[f"{kind}_Tp0.8"][T]
                )

    SWEEPS = {
        "coherent": {"state": "coherent", "alpha": 100.0, "Tp": 0.9, "eta_p": 0.95},
        "bsmss": {"state": "bsmss", "alpha": 1e3, "s": 1.2, "Tp": 0.85},
        "btmss": {"state": "btmss", "alpha": 10.0, "beta": 5.0, "s": 0.7, "Tp": 0.9, "eta_p": 0.97, "eta_a": 0.8},
        "fock": {"state": "fock", "fock_n": 7, "Tp": 0.9, "eta_p": 0.95},
    }

    @pytest.mark.parametrize("builder", ["figure2", "figure3", *SWEEPS])
    def test_rows_equal_scalar_lambda_lossy(self, builder):
        grid = cli.parse_grid("T=0.0123:0.987:517")
        cfg = self.SWEEPS.get(builder)
        rows = cli.sweep_rows(cfg, grid) if cfg else getattr(cli, f"{builder}_rows")(grid)
        keys = [(r["curve_id"], r["T"]) for r in rows]
        assert keys == sorted(keys)
        assert [r["T"] for r in rows] == grid.tolist() * (len(rows) // len(grid))
        for r in rows:
            spec = cli.build_spec(cfg) if cfg else cli._fig_spec(StateKind(r["state"]), r["s"])
            ch = ChannelConfig(T=r["T"], T_p=r["T_p"], eta_p=r["eta_p"], eta_a=r["eta_a"])
            assert r["lambda"] == lambda_lossy(spec, ch).lam, r

    @pytest.mark.parametrize(
        "argv",
        [
            ("figure2",),
            ("figure3",),
            ("sweep", "--state", "btmss", "--alpha", "1000", "--s", "1", "--Tp", "0.9"),
        ],
        ids=["figure2", "figure3", "sweep"],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv, "--grid", "T=0.1:0.9:9")
        _, out2, _ = run_cli(capsys, *argv, "--grid", "T=0.1:0.9:9")
        assert out1
        assert out1 == out2


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--state", "coherent", "--alpha", "100", "--eta-p", "0"),
            ("--state", "bsmss", "--alpha", "1000", "--s", "1", "--eta-p", "0"),
            ("--state", "fock", "--fock-n", "3", "--eta-p", "0"),
            ("--state", "btmss", "--alpha", "1000", "--s", "1", "--eta-p", "0"),
            ("--state", "bsmss", "--alpha", "1000", "--s", "800"),
            ("--state", "bsmss", "--alpha", "1000", "--s", "nan"),
            ("--state", "btmss", "--alpha", "10", "--beta", "5", "--s", "1", "--theta", "nan"),
            ("--state", "coherent", "--alpha", "inf"),
            ("--state", "coherent", "--alpha", "1e200"),
            ("--state", "coherent", "--alpha", "10", "--s", "5", "--fock-n", "9"),
            ("--state", "fock", "--fock-n", "3", "--alpha", "5"),
            ("--state", "bsmss", "--alpha", "1000", "--s", "1", "--theta", "1.5"),
            ("--state", "coherent", "--alpha", "1e-160"),
            ("--state", "coherent", "--alpha", "1e-160", "--format", "json"),
            ("--state", "bsmss", "--alpha", "1e-160", "--s", "0"),
            ("--state", "coherent", "--alpha", "10", "--eta-p", "1e-320"),
        ],
        ids=[
            "eta_p0-coherent",
            "eta_p0-bsmss",
            "eta_p0-fock",
            "eta_p0-btmss",
            "cosh-overflow",
            "s-nan",
            "theta-nan",
            "alpha-inf",
            "photons-overflow",
            "coherent-unread-s-fock_n",
            "fock-unread-alpha",
            "bsmss-off-amplitude-phase",
            "subnormal-photons",
            "subnormal-photons-json",
            "subnormal-photons-bsmss",
            "subnormal-eta_p",
        ],
    )
    def test_report_exits_1_with_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "report", *argv, "--T", "0.5")
        assert code == 1
        assert out == ""
        assert any(line.startswith("error: ") for line in err.splitlines())

    @pytest.mark.parametrize(
        "argv",
        [
            ("--state", "bsmss", "--alpha", "1000", "--s", "300"),
            ("--state", "btmss", "--alpha", "0", "--s", "3", "--sampler", "exact"),
            ("--state", "coherent", "--alpha", "200", "--trials", str(MAX_TRIALS + 1)),
            ("--state", "coherent", "--alpha", "200", "--trials", "1000", "--gain", "7"),
            ("--state", "coherent", "--alpha", "1e-100", "--sampler", "exact", "--trials", "100"),
        ],
        ids=["moments-overflow", "exact-cap", "trials-cap", "gain-single-mode", "slope-squared-underflow"],
    )
    def test_mc_exits_1_with_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "mc", *argv, "--T", "0.5")
        assert code == 1
        assert out == ""
        assert any(line.startswith("error: ") for line in err.splitlines())

    @pytest.mark.parametrize(
        "argv",
        [
            ("--state", "coherent", "--alpha", "100", "--eta-p", "0"),
            ("--state", "btmss", "--alpha", "1000", "--s", "1", "--eta-p", "0"),
            ("--state", "coherent", "--alpha", "0"),
            ("--state", "coherent", "--alpha", "100", "--Tp", "1.5"),
            ("--state", "bsmss", "--alpha", "100", "--s", "1", "--beta", "3"),
            ("--state", "fock", "--fock-n", "2", "--grid", "T=0.5:0.5000000000000001:3"),
            ("--state", "bsmss", "--alpha", "1000", "--s", "1", "--theta", "1.5"),
            ("--state", "coherent", "--alpha", "10", "--eta-p", "1e-320", "--grid", "T=0.1:0.9:3"),
            ("--state", "coherent", "--alpha", "10", "--eta-p", "1e-320", "--grid", "T=0.1:0.9:3", "--format", "json"),
        ],
        ids=[
            "eta_p0-coherent",
            "eta_p0-btmss",
            "no-photons",
            "Tp-range",
            "bsmss-unread-beta",
            "repeated-points",
            "bsmss-off-amplitude-phase",
            "subnormal-eta_p",
            "subnormal-eta_p-json",
        ],
    )
    def test_sweep_exits_1_with_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 1
        assert out == ""
        assert any(line.startswith("error: ") for line in err.splitlines())

    @pytest.mark.parametrize(
        "config",
        [
            {"alpha": "10"},
            {"T": "0.5"},
            {"Tp": None},
            {"fock_n": [3]},
            {"state": ["x"]},
            {"alpha": True},
            {"bogus": 1},
            {"grid": "T=0.1:0.9:5"},
            {"s": 1.0},
            [1, 2],
        ],
        ids=["alpha-str", "T-str", "Tp-null", "fock_n-list", "state-list", "alpha-bool", "unknown-key",
             "unread-key", "unread-probe-key", "not-an-object"],
    )
    def test_bad_config_exits_1_with_error(self, capsys, tmp_path, config):
        if isinstance(config, dict):
            config = {"state": "coherent", "alpha": 10.0, "T": 0.5, **config}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "report", "--config", str(path))
        assert code == 1
        assert out == ""
        assert any(line.startswith("error: ") for line in err.splitlines())
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "--format", "json", "--out", "{tmp}/v.json"),
            ("validate", "--skip-mc"),
            ("sweep", "--state", "coherent", "--alpha", "10", "--T", "0.5"),
            ("figure2", "--state", "btmss", "--s", "9"),
            ("figure3", "--Tp", "0.5"),
            ("report", "--state", "coherent", "--alpha", "10", "--T", "0.5", "--grid", "T=0.1:0.9:5"),
            ("report", "--state", "coherent", "--alpha", "10", "--T", "0.5", "--trials", "1000"),
        ],
        ids=["validate-output", "validate-hidden", "sweep-T", "figure2-probe", "figure3-loss", "report-grid",
             "report-trials"],
    )
    def test_unread_flag_exits_1_with_error(self, capsys, tmp_path, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert any(line.startswith("error: ") for line in err.splitlines())
        assert not (tmp_path / "v.json").exists()


class TestExtremeInputs:
    def test_exact_sampler_on_a_wide_twin_beam(self, capsys):
        argv = ("mc", "--state", "btmss", "--alpha", "0", "--s", "1", "--T", "0.5", "--sampler", "exact")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert math.isfinite(json.loads(out)[0]["z_score"])

    def test_report_on_a_strongly_amplitude_squeezed_probe(self, capsys):
        argv = ("report", "--state", "bsmss", "--alpha", "1000", "--s", "20", "--T", "0.5")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert json.loads(out)[0]["n_resource"] == pytest.approx(1e6 * math.exp(-40.0), rel=1e-12)


class TestMC:
    def test_mc_json_record(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc",
            "--state",
            "coherent",
            "--alpha",
            "200",
            "--T",
            "0.5",
            "--trials",
            "5000",
            "--seed",
            "9",
            "--format",
            "json",
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["trials"] == 5000
        assert abs(rec["z_score"]) < 5.0

    def test_mc_deterministic(self, capsys):
        args = (
            "mc", "--state", "coherent", "--alpha", "200", "--T", "0.5",
            "--trials", "2000", "--seed", "3",
        )
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert a == b

    def test_exact_sampler_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc",
            "--state",
            "fock",
            "--fock-n",
            "10",
            "--T",
            "0.5",
            "--trials",
            "2000",
            "--seed",
            "1",
            "--sampler",
            "exact",
            "--format",
            "json",
        )
        assert code == 0
        assert abs(json.loads(out)[0]["z_score"]) < 5.0


class TestStrategyLabel:
    @pytest.mark.parametrize(
        "probe, mc_args, label",
        [
            (("--state", "coherent", "--alpha", "50"), ("--sampler", "exact"), "Intensity"),
            (("--state", "bsmss", "--alpha", "1000", "--s", "0.5"), (), "Intensity"),
            (("--state", "fock", "--fock-n", "10"), ("--sampler", "exact"), "Intensity"),
            (("--state", "btmss", "--alpha", "1000", "--s", "1", "--theta", str(math.pi)), (), "IntensityDiff"),
        ],
        ids=["coherent", "bsmss", "fock", "btmss"],
    )
    def test_report_and_mc_agree(self, capsys, probe, mc_args, label):
        code, out, err = run_cli(capsys, "report", *probe, "--T", "0.5", "--format", "json")
        assert code == 0, err
        assert json.loads(out)[0]["strategy"] == label
        code, out, err = run_cli(capsys, "mc", *probe, "--T", "0.5", "--trials", "1000", *mc_args, "--format", "json")
        assert code == 0, err
        assert json.loads(out)[0]["strategy"] == label


class TestValidate:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 8
        assert all(l.startswith("PASS") for l in lines)

    def test_perturbation_negative_control(self, capsys, monkeypatch):
        closed_form = validate.lossy_symplectic_closed_form

        def perturbed(squeeze, channel):
            return tuple(x + 1e-6 for x in closed_form(squeeze, channel))

        monkeypatch.setattr(validate, "lossy_symplectic_closed_form", perturbed)
        code, out, _ = run_cli(capsys, "validate")
        assert code == 2
        assert any(l.startswith("FAIL") for l in out.splitlines())


class TestSpecDefaults:
    def test_doubly_seeded_theta_defaults_to_pi(self):
        spec = cli.build_spec({"state": "btmss", "alpha": 10.0, "beta": 5.0, "s": 1.0})
        assert spec.squeeze.theta == pytest.approx(math.pi)

    def test_single_seed_theta_defaults_to_zero(self):
        spec = cli.build_spec({"state": "btmss", "alpha": 10.0, "s": 1.0})
        assert spec.squeeze.theta == 0.0

    def test_unknown_state_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.build_spec({"state": "thermal"})
