import csv
import json
import warnings

import numpy as np
import pytest

from mqpure import NumericalInvariantError, build_basis, mq
from mqpure.cli import FILTER_CHECK_BYTES, _trial_bytes, main


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestSweepCommand:
    def test_thermal_sweep(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--out", str(out), "--t-max", "0.1", "--t-step", "0.01",
            "--observables", "I6,F6,diag_pair",
        ])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["t", "I6", "F6", "diag_pair"]
        assert len(rows) == 12
        assert float(rows[1][3]) == pytest.approx(18.0)  # |rho_uu|^2 + |rho_dd|^2 of I_z

    def test_homq_initial_state(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--state", "homq", "--out", str(out),
            "--t-max", "0.05", "--t-step", "0.01", "--observables", "I0,I6,diag_pair",
        ])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert float(rows[1][2]) == pytest.approx(2.0)  # starts as pure 6Q

    def test_default_observable_columns(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--out", str(out), "--t-max", "0.02", "--t-step", "0.01"]) == 0
        header = read_csv(out / "sweep.csv")[0]
        assert header == ["t"] + [f"I{k}" for k in range(7)] + ["diag_pair"]

    def test_population_tokens(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--out", str(out), "--t-max", "0.02", "--t-step", "0.01",
            "--observables", "pop_u,pop_d,pop:5",
        ])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert float(rows[1][1]) == pytest.approx(3.0)
        assert float(rows[1][2]) == pytest.approx(-3.0)

    def test_unknown_observable(self, tmp_path):
        code = main([
            "sweep", "--out", str(tmp_path / "o"), "--observables", "bogus",
            "--t-max", "0.02", "--t-step", "0.01",
        ])
        assert code == 1

    def test_bad_flag(self):
        assert main(["sweep", "--no-such-flag"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--t-step", "1e-15"], "error: time grid of t_max 2.0 and t_step 1e-15 would have "
                                "2000000000000001 points; the limit is 1000000"),
        (["--t-step", "0"], "error: sweep bounds must be positive"),
        (["--observables", "pop:64"], "error: state 64 out of range [0, 64)"),
    ], ids=["huge-grid", "zero-step", "population-index"])
    def test_bad_grid_or_observable_is_one_line_error(self, tmp_path, capsys, argv, message):
        assert main(["sweep", "--out", str(tmp_path / "o"), *argv]) == 1
        assert capsys.readouterr().err == message + "\n"

    def test_missing_coupling_file(self, tmp_path):
        code = main([
            "sweep", "--system", str(tmp_path / "nope.txt"), "--out", str(tmp_path),
            "--t-max", "0.02", "--t-step", "0.01",
        ])
        assert code == 1


class TestPipelineCommand:
    def test_config_run(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"t_max": 1.2, "t_step": 0.002}))
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(config), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.13 <= report["f_homq"] <= 0.15
        assert report["peak_counts"]["saturated"] == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    def test_invalid_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"t_prep": -1}')
        assert main(["pipeline", "--config", str(config)]) == 1

    @pytest.mark.parametrize("payload", [
        '{"t_prep": "0.9"}',
        '{"filter_n": 6.5}',
        '{"t_max": true}',
        '{"system": 6}',
        '{"saturation": [1, 2]}',
        '{"saturation": {"center_frequency": 0.0}}',
        '{"saturation": {"center_frequency": 0.0, "width_sigma": "wide"}}',
        '{"saturation": {"center_frequency": 0.0, "width_sigma": 1.0, "speed": 2}}',
    ])
    def test_wrongly_typed_config_is_one_line_error(self, tmp_path, capsys, payload):
        config = tmp_path / "config.json"
        config.write_text(payload)
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("payload, message", [
        ({"t_step": 1e-15}, "error: time grid of t_max 2.0 and t_step 1e-15 would have "
                            "2000000000000001 points; the limit is 1000000"),
        ({"saturation": {"center_frequency": 0.0, "width_sigma": 1e-200}},
         "error: width_sigma 1e-200 gives 2*width_sigma**2 = 0.0; it must be positive and finite"),
    ], ids=["huge-grid", "tiny-width"])
    def test_degenerate_config_is_one_line_error(self, tmp_path, capsys, payload, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["pipeline", "--config", str(config)]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == message + "\n"

    def test_invariant_violation_exit_code(self, monkeypatch, tmp_path):
        from mqpure import cli

        def explode(config):
            raise NumericalInvariantError("synthetic failure")

        monkeypatch.setattr(cli, "run_pipeline", explode)
        assert main(["pipeline"]) == 2

    # phases of 1e308 couplings overflow; with 1e305 (N = 2) or 1e300 (N = 6)
    # the phases stay finite, but squared secular frequencies do not
    @pytest.mark.parametrize("n_spins, coupling", [(2, 1e308), (6, 1e308), (2, 1e305), (6, 1e300)],
                             ids=["2", "6", "2-1e305", "6-1e300"])
    def test_overflowing_couplings_exit_2(self, tmp_path, capsys, n_spins, coupling):
        couplings = np.full((n_spins, n_spins), coupling)
        np.fill_diagonal(couplings, 0.0)
        system = tmp_path / "couplings.txt"
        np.savetxt(system, couplings, header=str(n_spins), comments="")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"system": str(system), "t_step": 0.01}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["pipeline", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        # outside the test harness every warning would be printed to stderr too
        assert [str(w.message) for w in caught] == []
        assert err.startswith("numerical invariant violated: ")
        assert len(err.splitlines()) == 1

    def test_unreachable_top_order_exit_1(self, tmp_path, capsys):
        system = tmp_path / "chain4.txt"
        system.write_text("4\n0 1 0 0\n1 0 1 0\n0 1 0 1\n0 0 1 0\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"system": str(system), "t_step": 0.01}))
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: order 4 is unreachable")
        assert len(err.splitlines()) == 1


class TestSpectrumCommand:
    def test_thermal_spectrum(self, tmp_path):
        out = tmp_path / "out"
        code = main(["spectrum", "--state", "thermal", "--out", str(out)])
        assert code == 0
        sticks = read_csv(out / "spectrum_sticks.csv")
        assert len(sticks) == 72 + 1
        broadened = read_csv(out / "spectrum_broadened.csv")
        assert broadened[0] == ["frequency", "amplitude"]
        assert len(broadened) == 4002

    def test_cat_diag_spectrum(self, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--state", "cat-diag", "--out", str(out)]) == 0
        sticks = read_csv(out / "spectrum_sticks.csv")
        assert len(sticks) == 2 + 1
        freqs = sorted(float(row[0]) for row in sticks[1:])
        assert freqs[0] == pytest.approx(-freqs[1], abs=1e-9)

    def test_pseudopure_file(self, tmp_path):
        populations = np.zeros(64)
        populations[63] = 1.0
        state_file = tmp_path / "pops.txt"
        state_file.write_text("# pseudopure ground\n" + "\n".join(map(str, populations)))
        out = tmp_path / "out"
        code = main([
            "spectrum", "--state", "pseudopure-file",
            "--state-file", str(state_file), "--out", str(out),
        ])
        assert code == 0
        assert len(read_csv(out / "spectrum_sticks.csv")) == 1 + 1

    def test_pipeline_populations_feed_spectrum(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"t_max": 0.02, "t_step": 0.01}))
        pipe_out = tmp_path / "pipe"
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # stub-grid boundary max
            assert main(["pipeline", "--config", str(config), "--out", str(pipe_out)]) == 0
        out = tmp_path / "spec"
        code = main([
            "spectrum", "--state", "pseudopure-file",
            "--state-file", str(pipe_out / "stage_populations.csv"),
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "spectrum_sticks.csv")
        assert len(rows) == 1 + 1  # single pseudopure line survives saturation

    def test_pseudopure_file_requires_path(self, tmp_path):
        assert main(["spectrum", "--state", "pseudopure-file", "--out", str(tmp_path)]) == 1

    def test_wrong_population_count(self, tmp_path):
        state_file = tmp_path / "pops.txt"
        state_file.write_text("1.0\n2.0\n")
        code = main([
            "spectrum", "--state", "pseudopure-file",
            "--state-file", str(state_file), "--out", str(tmp_path / "o"),
        ])
        assert code == 1


class TestFilterCheckCommand:
    def test_passes_on_default_seed(self, capsys):
        assert main(["filter-check", "--seed", "3", "--n-spins", "4",
                     "--trials", "10"]) == 0
        assert "max elementwise deviation" in capsys.readouterr().out

    def test_explicit_k_steps(self):
        assert main(["filter-check", "--seed", "1", "--n-spins", "3",
                     "--k-steps", "7", "--trials", "5"]) == 0

    def test_aliasing_k_steps_rejected(self):
        assert main(["filter-check", "--n-spins", "3", "--k-steps", "6",
                     "--trials", "2"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--n-spins", "12", "--trials", "1"], "12 spins with 26 phase steps would hold 20.9 GB"),
        (["--n-spins", "10", "--k-steps", "200"], "10 spins with 200 phase steps"),
        (["--n-spins", "4", "--trials", "0"], "--trials must be at least 1, got 0"),
    ], ids=["twelve-spins", "many-steps", "no-trials"])
    def test_refused_before_any_work(self, monkeypatch, capsys, argv, message):
        def unreachable(*args):
            raise AssertionError("a refused check built an order stack")
        monkeypatch.setattr(mq, "decompose", unreachable)
        monkeypatch.setattr(mq, "phase_cycle_decompose", unreachable)
        assert main(["filter-check"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_ten_spins_fit_the_budget(self):
        # without running it: ten spins need about 1.1 GB per trial
        assert _trial_bytes(build_basis(10), 22) <= FILTER_CHECK_BYTES
        assert _trial_bytes(build_basis(11), 24) > FILTER_CHECK_BYTES

    def test_misordered_phase_cycling_fails(self, monkeypatch):
        cycled = mq.phase_cycle_decompose
        monkeypatch.setattr(mq, "phase_cycle_decompose",
                            lambda *args: np.roll(cycled(*args), 1, axis=0))
        assert main(["filter-check", "--seed", "3", "--n-spins", "4", "--trials", "2"]) == 2
