import csv
import json
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from mqpure import (
    DensityMatrix,
    NumericalInvariantError,
    build_basis,
    diagonalize,
    dq_hamiltonian,
    hexagon_couplings,
    homq_coherence_state,
    mq,
    negated,
    site_symmetry,
    sweep,
)
from mqpure.cli import (
    FILTER_CHECK_BYTES,
    _deviations,
    _draw_state,
    _parse_observables,
    _trial_bytes,
    main,
)

from dense_observables import evaluate
from dense_operators import dense
from test_symmetry import ring_system


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

    @pytest.mark.parametrize("state", ["thermal", "homq"])
    def test_overflowing_phases_exit_2(self, tmp_path, capsys, state):
        # the pipeline's guard: the phases of 1e308 couplings overflow, and
        # the sweep would write a row of NaN at t = 1
        system = tmp_path / "couplings.txt"
        np.savetxt(system, [[0.0, 1e308], [1e308, 0.0]], header="2", comments="")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--system", str(system), "--state", state, "--t-max", "1",
                         "--t-step", "0.5", "--out", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ("numerical invariant violated: propagation phases "
                                           "are not finite (largest |E| = 5e+307)\n")
        assert not out.exists()

    # 1e20 couplings give finite phases near 1e20 rad, where adjacent floats
    # are about 1e4 rad apart, so no value written would mean anything;
    # 1e10 couplings keep phases near 1e11 rad, below 2^52
    @pytest.mark.parametrize("command", ["sweep", "pipeline"])
    @pytest.mark.parametrize("coupling, phase", [(1e20, "3.14159e+20"), (1e10, None)],
                             ids=["1e20", "1e10"])
    def test_phases_above_2_to_52_exit_2(self, tmp_path, capsys, command, coupling, phase):
        system = tmp_path / "couplings.txt"
        np.savetxt(system, [[0.0, coupling], [coupling, 0.0]], header="2", comments="")
        out = tmp_path / "out"
        if command == "sweep":
            argv = ["sweep", "--system", str(system), "--t-max", "1", "--t-step", "0.5"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"system": str(system), "filter_n": 2, "t_max": 1.0}))
            argv = ["pipeline", "--config", str(config)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        if phase is None:
            assert (code, err) == (0, "")
            return
        assert code == 2
        assert err == (f"numerical invariant violated: propagation phases reach {phase} rad, "
                       "above 2^52 rad, where adjacent floats are a radian or more apart\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("observables", ["I0,I6,F6,diag_pair", "pop_u,pop:5,I2"])
    def test_homq_sweeps_the_negated_hamiltonian(self, tmp_path, observables):
        # the forward eigensystem with negated eigenvalues against a second
        # diagonalization of -H
        out = tmp_path / "out"
        code = main(["sweep", "--state", "homq", "--out", str(out), "--t-max", "0.9",
                     "--t-step", "0.1", "--observables", observables])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        basis = build_basis(6)
        system = hexagon_couplings()
        rho = homq_coherence_state(basis)
        reference = sweep(rho, diagonalize(negated(dq_hamiltonian(system, basis))),
                          np.array([float(row[0]) for row in rows[1:]]),
                          _parse_observables(observables, basis))
        for c, name in enumerate(rows[0][1:], start=1):
            column = np.array([float(row[c]) for row in rows[1:]])
            # F<n> is a fraction of the initial purity
            want = reference.column(name) / (rho.purity() if name[0] == "F" else 1.0)
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(column - want).max() <= 1e-12 * scale, name

    def test_homq_sweep_of_eight_spins_matches_the_dense_oracle(self, tmp_path):
        # i(|u><d| - |d><u|) across 8 spin flips has R conj(rho) R+ = -rho for
        # R = exp(i pi I_z / 2): the one state of the commands with eps = -1
        system = ring_system(8, 3)
        basis = build_basis(8)
        eig = diagonalize(dq_hamiltonian(system, basis), site_symmetry(system))
        assert eig.orbits.order == 8 and eig.conjugate_pairs
        # a state on an orbit of period 8 that the coherence reaches (even count)
        state = next(s for s in range(basis.dim)
                     if eig.orbits.period[eig.orbits.of[s]] == 8 and bin(s).count("1") == 4)
        path = tmp_path / "ring8.txt"
        np.savetxt(path, system.couplings, header="8", comments="")
        out = tmp_path / "out"
        observables = f"I8,diag_pair,pop:{state}"
        assert main(["sweep", "--system", str(path), "--state", "homq", "--t-max", "1.5",
                     "--t-step", "0.1", "--observables", observables, "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        values, vectors = np.linalg.eigh(-dense(dq_hamiltonian(system, basis)))
        rho = dense(homq_coherence_state(basis))
        states = []
        for t in (float(row[0]) for row in rows[1:]):
            u = (vectors * np.exp(-2j * np.pi * t * values)) @ vectors.conj().T
            states.append(u @ rho @ u.conj().T)
        for c, (name, obs) in enumerate(_parse_observables(observables, basis).items(), start=1):
            column = np.array([float(row[c]) for row in rows[1:]])
            want = np.array([evaluate(obs, matrix) for matrix in states])
            # the coherence keeps every population at zero, so those columns
            # are held to the state's scale, 1
            assert np.abs(column - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0), name

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

    def test_malformed_spin_count_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2.0\n0 1\n1 0\n")
        assert main(["sweep", "--system", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (f"error: {path}: spin count '2.0' is not a "
                                           "positive integer\n")

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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_saturation_rates_are_one_line_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"t_max": 1.2, "t_step": 0.01, "saturation": {
            "center_frequency": 0.0, "width_sigma": 1.0, "mode": "timed", "rate_scale": 1e308}}))
        assert main(["pipeline", "--config", str(config)]) == 1
        assert capsys.readouterr().err == ("error: rate_scale 1e+308 makes the saturation rates "
                                           "overflow\n")

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


@pytest.mark.parametrize("argv", [
    ["sweep", "--t-max", "0.02", "--t-step", "0.01"],
    ["pipeline"],
    ["spectrum", "--grid-points", "11"],
], ids=["sweep", "pipeline", "spectrum"])
def test_eigendecomposition_failure_exits_2(tmp_path, monkeypatch, capsys, argv):
    # numpy's LinAlgError is a ValueError, which would read as bad input
    def unconverged(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", unconverged)
    out = [] if argv[0] == "pipeline" else ["--out", str(tmp_path / "out")]
    assert main([*argv, *out]) == 2
    assert capsys.readouterr().err == ("numerical invariant violated: eigendecomposition "
                                       "failed: Eigenvalues did not converge\n")


class TestD12WithCouplingFile:
    """d12 scales the hexagon only; a coupling file with any other d12 is refused."""

    @pytest.mark.parametrize("command", [["sweep", "--t-max", "0.02", "--t-step", "0.01"],
                                         ["spectrum"]], ids=["sweep", "spectrum"])
    @pytest.mark.parametrize("d12", ["2", "0.5", "nan"])
    def test_one_line_error(self, tmp_path, capsys, command, d12):
        system = tmp_path / "pair.txt"
        system.write_text("2\n0 1\n1 0\n")
        out = tmp_path / "out"
        assert main([*command, "--system", str(system), "--d12", d12, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: d12 scales only the hexagon") and err.count("\n") == 1
        assert not out.exists()

    def test_pipeline_config(self, tmp_path, capsys):
        system = tmp_path / "pair.txt"
        system.write_text("2\n0 1\n1 0\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"system": str(system), "d12": 2.0, "t_step": 0.01}))
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: d12 scales only the hexagon") and err.count("\n") == 1

    def test_unit_d12_and_the_hexagon_still_run(self, tmp_path):
        system = tmp_path / "pair.txt"
        system.write_text("2\n0 1\n1 0\n")
        assert main(["spectrum", "--system", str(system), "--d12", "1.0",
                     "--out", str(tmp_path / "file")]) == 0
        assert main(["spectrum", "--d12", "2", "--out", str(tmp_path / "hexagon")]) == 0


class TestSpectrumCommand:
    def test_thermal_populations_are_the_m_values(self, tmp_path, monkeypatch):
        # I_z is m on every m block: no dense thermal state, no purity and
        # no eigenbasis read
        from mqpure import cli, nonunitary, spin_core

        def refuse(*args, **kwargs):
            raise AssertionError("the thermal spectrum read a state")

        monkeypatch.setattr(cli, "thermal_state", refuse)
        monkeypatch.setattr(nonunitary.TransitionGraph, "populations", refuse)
        monkeypatch.setattr(spin_core.DensityMatrix, "purity", refuse)
        assert main(["spectrum", "--state", "thermal", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["--linewidth", "nan"], "error: linewidth must be positive and finite, got nan"),
        (["--floor", "nan"], "error: intensity floor must be nonnegative and finite, got nan"),
        (["--merge-tol", "nan"], "error: merge tolerance must be positive and finite, got nan"),
        (["--linewidth", "inf"], "error: linewidth must be positive and finite, got inf"),
        (["--floor", "inf"], "error: intensity floor must be nonnegative and finite, got inf"),
        (["--merge-tol", "inf"], "error: merge tolerance must be positive and finite, got inf"),
        (["--grid-points", "1000001"], "error: --grid-points must be in [1, 1000000], got 1000001"),
    ], ids=["linewidth", "floor", "merge-tol", "linewidth-inf", "floor-inf", "merge-tol-inf",
            "grid-points"])
    def test_nan_flag_is_one_line_error(self, tmp_path, capsys, argv, message):
        # checked before any file is written, and before a grid is allocated
        assert main(["spectrum", "--out", str(tmp_path / "o"), *argv]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "o").exists()

    # the Lorentzians' detunings or their squares overflow: the exact limit
    # of lines that narrow is 0 away from them
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("linewidth", ["1e-155", "1e-200", "1e-320"])
    def test_very_narrow_lines(self, tmp_path, linewidth):
        out = tmp_path / "out"
        assert main(["spectrum", "--linewidth", linewidth, "--out", str(out)]) == 0
        curve = np.loadtxt(out / "spectrum_broadened.csv", delimiter=",", skiprows=1)
        assert np.isfinite(curve).all() and np.abs(curve[:, 1]).max() < 1e-300

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

    def test_pipeline_populations_reproduce_its_spectrum_on_a_relabelled_ring(self, tmp_path):
        # both commands take the ring's momentum sectors, so they list the
        # eigenstates in one order
        couplings = tmp_path / "ring8.txt"
        np.savetxt(couplings, ring_system(8, 3).couplings, header="8", comments="")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"system": str(couplings), "filter_n": 6, "t_prep": 1.0,
                                      "t_max": 1.5, "t_step": 0.05}))
        pipe_out = tmp_path / "pipe"
        assert main(["pipeline", "--config", str(config), "--out", str(pipe_out)]) == 0
        populations = pipe_out / "stage_populations.csv"
        # the saturated column is the file's last; the crushed one, with many
        # more lines, is written alone
        crushed = tmp_path / "crushed.txt"
        column = read_csv(populations)[0].index("crushed")
        crushed.write_text("\n".join(row[column] for row in read_csv(populations)[1:]))
        for state_file, stage in ((populations, "saturated"), (crushed, "crushed")):
            out = tmp_path / stage
            assert main(["spectrum", "--system", str(couplings), "--state", "pseudopure-file",
                         "--state-file", str(state_file), "--out", str(out)]) == 0
            want = np.loadtxt(pipe_out / f"spectrum_{stage}.csv", delimiter=",", skiprows=1,
                              ndmin=2)
            got = np.loadtxt(out / "spectrum_sticks.csv", delimiter=",", skiprows=1, ndmin=2)
            assert want.shape == got.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), stage

    def test_only_the_first_line_may_be_a_header(self, tmp_path, capsys):
        # a second unparseable line, even before the first number, is refused
        populations = np.zeros(16)
        populations[15] = 1.0
        system = tmp_path / "chain4.txt"
        np.savetxt(system, np.diag([1.0] * 3, 1) + np.diag([1.0] * 3, -1), header="4",
                   comments="")
        state_file = tmp_path / "pops.txt"
        state_file.write_text("\n".join(["# comment", "eigenstate,population", "", "junk",
                                         "more junk", *map(str, populations)]))
        out = tmp_path / "o"
        assert main(["spectrum", "--system", str(system), "--state", "pseudopure-file",
                     "--state-file", str(state_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {state_file}: line 4: population 'junk' "
                                           "is not a number\n")
        assert not out.exists()
        state_file.write_text("\n".join(["# comment", "", "eigenstate,population",
                                         *map(str, populations)]))
        assert main(["spectrum", "--system", str(system), "--state", "pseudopure-file",
                     "--state-file", str(state_file), "--out", str(out)]) == 0

    def test_pseudopure_file_requires_path(self, tmp_path):
        assert main(["spectrum", "--state", "pseudopure-file", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_population_is_one_line_error(self, tmp_path, capsys, bad):
        # a stage_populations.csv with one saturated population not finite;
        # read as given it would merge to 0 lines and exit 0
        rows = [f"{i},0.0,{1.0 if i == 63 else 0.0}" for i in range(64)]
        rows[17] = f"17,0.0,{bad}"
        state_file = tmp_path / "stage_populations.csv"
        state_file.write_text("\n".join(["index,crushed,saturated", *rows]) + "\n")
        out = tmp_path / "o"
        assert main(["spectrum", "--state", "pseudopure-file", "--state-file", str(state_file),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {state_file}: line 19: population '17,0.0,{bad}' "
                       "is not finite\n")
        assert not out.exists()

    def test_overflowing_couplings_exit_2(self, tmp_path, capsys):
        # the pipeline's guard: 1e308 would give infinite frequencies and a
        # broadened spectrum of NaN
        system = tmp_path / "couplings.txt"
        np.savetxt(system, [[0.0, 1e308], [1e308, 0.0]], header="2", comments="")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["spectrum", "--system", str(system), "--state", "thermal",
                         "--out", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ("numerical invariant violated: squared secular "
                                           "frequencies overflow (largest |coupling| = 1e+308)\n")
        assert not out.exists()

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

    # the default k_steps fits at every allowed size, so only a step count
    # whose table is built through more than the limit is refused
    @pytest.mark.parametrize("argv, message", [
        (["--n-spins", "12", "--k-steps", "1000000", "--trials", "1"],
         "12 spins with 1000000 phase steps would hold 3.8 GB"),
        (["--n-spins", "10", "--k-steps", "100000000"], "10 spins with 100000000 phase steps"),
        (["--n-spins", "4", "--trials", "0"], "--trials must be at least 1, got 0"),
        (["--n-spins", "4", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    ], ids=["twelve-spins", "many-steps", "no-trials", "negative-seed"])
    def test_refused_before_any_work(self, monkeypatch, capsys, argv, message):
        def unreachable(*args):
            raise AssertionError("a refused check built its tables or an order stack")
        for name in ("PhaseCycleCheck", "decompose", "phase_cycle_decompose"):
            monkeypatch.setattr(mq, name, unreachable)
        assert main(["filter-check"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_twelve_spins_fit_the_budget(self):
        # without running it: twelve spins need about 0.85 GB per trial at
        # the default 26 steps, three 268 MB matrices and 40 MB of check
        # (one band's 25 orders of 16 x 4096 complex values and their gaps);
        # a million steps build the order table through 3.7 GB of arrays
        basis = build_basis(12)
        assert 0.84e9 < _trial_bytes(basis, 26) <= FILTER_CHECK_BYTES
        assert _trial_bytes(basis, 10**6) > FILTER_CHECK_BYTES

    def test_misordered_phase_cycling_fails(self, monkeypatch):
        cycled_band = mq._cycled_band
        monkeypatch.setattr(mq, "_cycled_band",
                            lambda *args: np.roll(cycled_band(*args), 1, axis=0))
        assert main(["filter-check", "--seed", "3", "--n-spins", "4", "--trials", "2"]) == 2

    def test_nan_deviation_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(mq.PhaseCycleCheck, "deviation", lambda self, rho: float("nan"))
        assert main(["filter-check", "--seed", "3", "--n-spins", "4", "--trials", "2"]) == 2
        assert "deviation over 2 trials: nan" in capsys.readouterr().out

    def test_one_trial_holds_no_order_stack(self):
        # traced peak of making the 8-spin check and running one trial:
        # 3.2 MiB (1.7 MiB of the order table and band buffers, then 1.5 MiB
        # while the state is drawn); holding the direct and phase-cycled
        # stacks and the 18 rotated copies, as unbanded checks did, it is
        # 54.2 MiB
        basis = build_basis(8)
        tracemalloc.start()
        try:
            check = mq.PhaseCycleCheck(basis, 18)
            check.deviation(_draw_state(np.random.default_rng(1), basis.dim))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_one_state_is_checked_while_the_next_is_drawn(self, capsys):
        # the whole command, 4.3 to 4.4 MiB traced; a third state in flight
        # would add 1 MiB
        tracemalloc.start()
        try:
            assert main(["filter-check", "--n-spins", "8", "--trials", "3"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _trial_bytes(build_basis(8), 18)

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    @pytest.mark.parametrize("n_spins", range(1, 7))
    def test_deviations_are_those_of_a_serial_loop(self, capsys, n_spins, seed):
        # draw, then check, trial by trial, with the draw written as
        # raw + raw^+: the worker changes neither the states nor their order
        k_steps, trials = 2 * n_spins + 3, 5
        basis = build_basis(n_spins)
        check = mq.PhaseCycleCheck(basis, k_steps)
        rng = np.random.default_rng(seed)
        serial = []
        for _ in range(trials):
            raw = (rng.standard_normal((basis.dim, basis.dim))
                   + 1j * rng.standard_normal((basis.dim, basis.dim)))
            serial.append(check.deviation(DensityMatrix(matrix=raw + raw.conj().T)))
        assert _deviations(check, np.random.default_rng(seed), trials) == serial
        assert main(["filter-check", "--n-spins", str(n_spins), "--seed", str(seed),
                     "--k-steps", str(k_steps), "--trials", str(trials)]) == 0
        assert capsys.readouterr().out == (f"max elementwise deviation over {trials} "
                                           f"trials: {np.max(serial):.3e}\n")

    def test_draw_is_a_frozen_hermitian_state(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 8, 8))
        rho = _draw_state(np.random.default_rng(3), 8)
        assert not rho.matrix.flags.writeable
        assert np.array_equal(rho.matrix.real, a + a.T)
        assert np.array_equal(rho.matrix.imag, b - b.T)

    @pytest.mark.parametrize("trials", [3, 6])
    def test_an_error_of_the_check_is_one_line(self, monkeypatch, capsys, trials):
        # the third trial fails: as the last one, and with later ones drawn
        deviation, calls = mq.PhaseCycleCheck.deviation, []

        def failing(self, rho):
            calls.append(rho)
            if len(calls) == 3:
                raise ValueError("third trial")
            return deviation(self, rho)

        monkeypatch.setattr(mq.PhaseCycleCheck, "deviation", failing)
        threads = threading.active_count()
        assert main(["filter-check", "--n-spins", "4", "--trials", str(trials)]) == 1
        assert capsys.readouterr().err == "error: third trial\n"
        assert len(calls) == 3
        assert threading.active_count() == threads

    def test_no_thread_is_left_running(self):
        threads = threading.active_count()
        assert main(["filter-check", "--n-spins", "4", "--trials", "4"]) == 0
        assert threading.active_count() == threads
