import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqpure import mq, nonunitary, pipeline
from mqpure.cli import main
from mqpure import (
    NumericalInvariantError,
    PipelineConfig,
    SaturationParams,
    SpinSystem,
    StickSpectrum,
    SweepTable,
    build_basis,
    decompose,
    default_saturation,
    diagonalize,
    dq_hamiltonian,
    evolve,
    homq_coherence_state,
    locate_maximum,
    mq_intensity,
    mq_intensity_extractor,
    negated,
    pseudopure_fidelity,
    run_pipeline,
    sweep,
    thermal_state,
)
from mqpure.spin_core import DensityMatrix, SparseOperator

from test_hamiltonians import random_systems


def write_two_spin_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("2\n0 1\n1 0\n")
    return path


def write_four_chain(tmp_path):
    """A 4-spin open chain: order 4 cannot be excited, orders 0 and 2 can."""
    path = tmp_path / "chain4.txt"
    path.write_text("4\n0 1 0 0\n1 0 1 0\n0 1 0 1\n0 0 1 0\n")
    return path


class TestHexagonDefaults:
    def test_efficiencies(self, pipeline_report):
        report, _ = pipeline_report
        assert 0.13 <= report.f_homq <= 0.15
        assert 0.71 <= report.f_convert <= 0.73
        assert 0.10 <= report.f_overall <= 0.11
        assert abs(report.f_overall - report.f_homq * report.f_convert) < 1e-6

    def test_optimum_location(self, pipeline_report):
        report, _ = pipeline_report
        assert report.t_star == pytest.approx(0.973, abs=0.01)

    def test_peak_counts(self, pipeline_report):
        report, _ = pipeline_report
        assert report.peak_counts["crushed"] == 2
        assert report.peak_counts["saturated"] == 1

    def test_saturation_outcome(self, pipeline_report):
        report, _ = pipeline_report
        assert abs(report.p_u_drift) < 0.01
        assert report.pseudopure_fidelity >= 0.9
        assert report.u_peak_gain > 1.0

    def test_output_files(self, pipeline_report):
        report, out = pipeline_report
        expected = [
            "report.json",
            "sweep.csv",
            "transitions.csv",
            "stage_mq_intensities.csv",
            "stage_populations.csv",
            "spectrum_thermal.csv",
            "spectrum_crushed.csv",
            "spectrum_saturated.csv",
        ]
        for name in expected:
            assert (out / name).exists(), name
        payload = json.loads((out / "report.json").read_text())
        assert payload["f_homq"] == report.f_homq
        assert payload["peak_counts"]["saturated"] == 1

    def test_sweep_csv_has_full_grid(self, pipeline_report):
        _, out = pipeline_report
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("t,I0,")
        assert len(lines) == 2002


class TestTwoSpinPipeline:
    def test_complete_conversion(self, tmp_path):
        config = PipelineConfig(
            system=str(write_two_spin_file(tmp_path)),
            t_prep=0.25,
            t_max=0.5,
            t_step=0.001,
        )
        report = run_pipeline(config)
        assert report.f_homq == pytest.approx(1.0, abs=1e-9)
        assert report.f_convert == pytest.approx(1.0, abs=1e-9)
        assert report.f_overall == pytest.approx(1.0, abs=1e-9)
        assert report.t_star == pytest.approx(0.25, abs=0.01)
        assert report.peak_counts["crushed"] == 2
        assert report.peak_counts["saturated"] == 1
        assert report.pseudopure_fidelity >= 0.9

    @pytest.mark.parametrize("filter_n", [None, 4])
    def test_rejects_unreachable_top_order(self, tmp_path, filter_n):
        config = PipelineConfig(system=str(write_four_chain(tmp_path)), t_prep=0.3,
                                t_max=0.4, t_step=0.01, filter_n=filter_n)
        with pytest.raises(ValueError, match=r"order 4 is unreachable.*2 \+ 4k spins"):
            run_pipeline(config)

    @pytest.mark.filterwarnings("ignore:sweep maximum")
    def test_lower_even_order_runs_when_top_unreachable(self, tmp_path):
        config = PipelineConfig(system=str(write_four_chain(tmp_path)), t_prep=0.3,
                                t_max=0.4, t_step=0.01, filter_n=2)
        # saturation leaves no line at the |u> transition here
        with pytest.warns(RuntimeWarning, match="saturated spectrum has no line"):
            report = run_pipeline(config)
        assert np.isnan(report.u_peak_gain)
        assert report.f_homq > 1e-3
        assert report.f_overall == pytest.approx(report.f_homq * report.f_convert, rel=1e-12)


    def test_rejects_nan_spectrum_in_a_later_block(self, tmp_path, monkeypatch):
        def diagonalize_with_nan(h, symmetry=None):
            eig = diagonalize(h, symmetry)
            *head, last = eig.blocks
            nan = np.full_like(last.eigenvalues, np.nan)
            return dataclasses.replace(eig, blocks=(*head, last._replace(eigenvalues=nan)))

        monkeypatch.setattr(pipeline, "diagonalize", diagonalize_with_nan)
        config = PipelineConfig(system=str(write_two_spin_file(tmp_path)), t_prep=0.25,
                                t_max=0.5, t_step=0.01)
        with pytest.raises(NumericalInvariantError, match="not finite"):
            run_pipeline(config)


class TestProductRuleProperty:
    @pytest.mark.filterwarnings("ignore:sweep maximum")
    @settings(max_examples=12, deadline=None)
    @given(st.one_of(random_systems(2, 2), random_systems(6, 6)), st.floats(0.05, 1.0))
    def test_random_couplings_at_excitable_sizes(self, tmp_path_factory, system, t_prep):
        path = tmp_path_factory.mktemp("couplings") / "couplings.txt"
        np.savetxt(path, system.couplings, header=str(system.n_spins), comments="")
        config = PipelineConfig(
            system=str(path), t_prep=t_prep, t_max=0.5, t_step=0.05,
            saturation=SaturationParams(center_frequency=0.0, width_sigma=1.0),
        )
        report = run_pipeline(config)
        gap = abs(report.f_overall - report.f_homq * report.f_convert)
        assert gap <= 1e-12 * report.f_overall


class TestInvariantChecks:
    """Each conserved-quantity check fires when the step it guards is broken.

    The post-filter steps are broken on the sector pairs, at the hexagon's
    top order and at order 2.
    """

    CONFIG = {"t_max": 1.2, "t_step": 0.01}

    def run(self, message, **config):
        with pytest.raises(NumericalInvariantError, match=message):
            run_pipeline(PipelineConfig(**self.CONFIG, **config))

    def scale(self, monkeypatch, name, factor):
        """Scale what the pipeline's ``name`` returns by ``factor``."""
        original = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *args: factor * original(*args))

    def test_excitation_purity(self, monkeypatch):
        def sweep_with_a_leaky_point(*args, **kwargs):
            table = sweep(*args, **kwargs)
            points = SweepTable(table.points.times,
                                {name: 1.01 * col for name, col in table.points.columns.items()})
            return dataclasses.replace(table, points=points)

        monkeypatch.setattr(pipeline, "sweep", sweep_with_a_leaky_point)
        self.run("purity drifted through excitation")

    def test_reversal_purity(self, monkeypatch):
        self.scale(monkeypatch, "_reversed", 1.01)
        self.run("purity drifted through time reversal")

    def test_reversal_purity_at_order_2(self, monkeypatch):
        self.scale(monkeypatch, "_reversed", 1.01)
        self.run("purity drifted through time reversal", filter_n=2)

    def test_product_rule(self, monkeypatch):
        # filtered pairs scaled pass the reversal check, which reads the
        # reversal of the scaled pairs; the filtered purity then no longer
        # equals the excited state's order intensity
        self.scale(monkeypatch, "_order_filter", 1.01)
        self.run("efficiency product rule violated")

    def test_product_rule_at_order_2(self, monkeypatch):
        self.scale(monkeypatch, "_order_filter", 1.01)
        self.run("efficiency product rule violated", filter_n=2)

    def test_filter_that_loses_the_whole_state(self, monkeypatch):
        # zero filtered and reversed pairs pass the reversal check (0 = 0);
        # the sweep point still holds 14% of the thermal purity in order 6
        self.scale(monkeypatch, "_order_filter", 0.0)
        self.run("efficiency product rule violated")

    def test_filter_that_loses_the_whole_state_at_order_2(self, monkeypatch):
        self.scale(monkeypatch, "_order_filter", 0.0)
        self.run("efficiency product rule violated", filter_n=2)

    def test_crush_purity(self, monkeypatch):
        original = pipeline._after_filter

        def heating_crush(*args):
            after = original(*args)
            return after._replace(populations=10.0 * after.populations)

        monkeypatch.setattr(pipeline, "_after_filter", heating_crush)
        self.run("crush increased the state purity")

    def test_population_conservation(self, monkeypatch):
        original = nonunitary.saturate
        monkeypatch.setattr(nonunitary, "saturate", lambda *args: original(*args) + 1.0)
        self.run("saturation did not conserve total population")


class TestEachStageIsReadOnce:
    """The thermal stage is read from its closed forms and the filtered
    pairs once, as ``kept``; the readers see only the reversed pairs."""

    CONFIG = {"t_max": 1.2, "t_step": 0.01}

    def record(self, monkeypatch, owner, name, calls, take):
        """Record ``take(args, result)`` of each call of ``owner.name``."""
        original = getattr(owner, name)

        def recorded(*args):
            result = original(*args)
            calls.append(take(args, result))
            return result

        monkeypatch.setattr(owner, name, recorded)

    def check(self, monkeypatch, **config):
        filtered, reversed_, reads, dense_reads = [], [], [], []
        self.record(monkeypatch, pipeline, "_order_filter", filtered, lambda args, result: result)
        self.record(monkeypatch, pipeline, "_reversed", reversed_,
                    lambda args, result: (args[0].b.momentum, args[1], result))
        # the order reads of the reversed classes (each pair its own class
        # under the hexagon's site cycle), and the populations' pairs
        self.record(monkeypatch, mq, "level_sums", reads, lambda args, result: args[0])
        self.record(monkeypatch, pipeline, "_add_populations", reads,
                    lambda args, result: [part.moved for part in args[4]])
        for owner, name in ((mq, "mq_intensities"), (DensityMatrix, "purity"),
                            (SparseOperator, "purity"), (nonunitary.TransitionGraph,
                                                         "populations")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, name=name, original=original: (
                dense_reads.append(name), original(*args))[1])
        report = run_pipeline(PipelineConfig(**self.CONFIG, **config))
        assert dense_reads == []
        assert len(filtered) == len(reversed_) > 0
        assert all(y is reversing for y, (_, reversing, _) in zip(filtered, reversed_))
        # the hexagon's site cycle has order 6, and only k <= 3 run: each
        # pair with 0 < k < 3 stands for its conjugate pair 6 - k too
        assert all(k <= 3 for k, _, _ in reversed_)
        kept = sum((2 if 0 < k < 3 else 1) * float(np.vdot(y, y).real)
                   for k, y, _ in reversed_)
        assert report.f_homq == pytest.approx(kept / 96.0, rel=1e-14)
        pairs = [pair for _, _, pair in reversed_]
        seen = [y for read in reads for y in (read if isinstance(read, list) else [read])]
        assert all(any(y is pair for pair in pairs) for y in seen)
        assert all(any(y is pair for y in seen) for pair in pairs)

    def test_top_order(self, monkeypatch):
        self.check(monkeypatch)

    def test_order_2(self, monkeypatch):
        self.check(monkeypatch, filter_n=2)


class TestLocateMaximum:
    def test_hexagon_sixth_order(self, thermal_sweep):
        located = locate_maximum(thermal_sweep, "I6")
        assert located.interior
        assert located.t_star == pytest.approx(0.973, abs=0.01)
        assert located.value / 96.0 == pytest.approx(0.14, abs=0.01)

    def test_two_spin_quarter_period(self):
        basis = build_basis(2)
        system = SpinSystem(n_spins=2, couplings=np.array([[0.0, 1.0], [1.0, 0.0]]))
        h = dq_hamiltonian(system, basis)
        rho = thermal_state(basis)
        table = sweep(rho, h, np.arange(0.0, 0.5005, 0.001),
                      {"I2": mq_intensity_extractor(basis, 2)})
        located = locate_maximum(
            SweepTable(table.times, {"F2": table.column("I2") / rho.purity()}), "F2")
        assert located.interior
        assert located.t_star == pytest.approx(0.25, abs=0.01)
        assert located.value == pytest.approx(1.0, abs=1e-6)

    def test_monotone_column_flagged(self):
        table = SweepTable(
            times=np.array([0.0, 1.0, 2.0]),
            columns={"rising": np.array([0.0, 1.0, 2.0])},
        )
        located = locate_maximum(table, "rising")
        assert not located.interior
        assert located.t_star == 2.0
        assert located.value == 2.0

    def test_missing_observable(self, thermal_sweep):
        with pytest.raises(ValueError):
            locate_maximum(thermal_sweep, "I9")


class TestDiagonalMatchAtOptimum:
    def test_global_maximum_converts_cleanly(self, basis6, h_av6, thermal_sweep):
        located = locate_maximum(thermal_sweep, "I6")
        rho6 = homq_coherence_state(basis6)
        eig_rev = diagonalize(negated(h_av6))
        rho = evolve(rho6, eig_rev, located.t_star)
        i0 = mq_intensity(decompose(rho, basis6), 0)
        up, down = basis6.index_all_up, basis6.index_all_down
        pair = abs(rho.matrix[up, up]) ** 2 + abs(rho.matrix[down, down]) ** 2
        assert abs(i0 - pair) < 0.01 * i0


class TestConfig:
    def test_from_file_round_trip(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "system": "hexagon",
            "t_prep": 0.5,
            "t_max": 1.0,
            "t_step": 0.01,
            "saturation": {
                "center_frequency": -3.7,
                "width_sigma": 1.9,
                "mode": "timed",
                "duration": 2.0,
            },
        }))
        config = PipelineConfig.from_file(config_path)
        assert config.t_prep == 0.5
        assert config.saturation.mode == "timed"
        assert config.saturation.duration == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"t_prp": 0.5}')
        with pytest.raises(ValueError):
            PipelineConfig.from_file(config_path)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(t_prep=-1.0)
        with pytest.raises(ValueError):
            PipelineConfig(t_step=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(merge_tolerance=0.0)

    @pytest.mark.parametrize("field, value", [
        ("t_prep", math.nan), ("t_max", math.nan), ("t_step", math.nan),
        ("merge_tolerance", math.nan), ("intensity_floor", math.nan), ("intensity_floor", -1),
        ("t_prep", math.inf), ("t_max", math.inf), ("t_step", math.inf),
        ("merge_tolerance", math.inf), ("intensity_floor", math.inf),
        pytest.param("t_max", 10**400, id="t_max-integer-beyond-float"),
    ])
    def test_nan_or_negative_field_is_one_line_error(self, tmp_path, capsys, field, value):
        # each guard fails NaN: no run on a NaN time, no misleading merge
        # message and no peak count against a meaningless floor
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"t_max": 1.2, "t_step": 0.01, field: value}))
        assert main(["pipeline", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("width", [1e-200, 1e200, float("nan")])
    def test_width_whose_envelope_denominator_is_not_finite(self, tmp_path, width):
        # 2 * 1e-200**2 underflows to 0 and 2 * 1e200**2 overflows
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"saturation": {"center_frequency": 0.0, "width_sigma": width}}))
        with pytest.raises(ValueError, match="width_sigma"):
            PipelineConfig.from_file(config_path)

    @pytest.mark.parametrize("field, value", [
        ("center_frequency", math.nan), ("center_frequency", math.inf),
        ("center_frequency", -math.inf), ("rate_scale", math.nan), ("rate_scale", math.inf),
        ("duration", math.nan), ("duration", math.inf), ("envelope_floor", math.nan),
        ("envelope_floor", math.inf),
    ])
    def test_non_finite_saturation_setting_is_one_line_error(self, tmp_path, capsys, field,
                                                             value):
        # timed mode, so that a NaN duration is refused as input and not
        # reported as a saturation that lost population
        saturation = {"center_frequency": 0.0, "width_sigma": 1.0, "mode": "timed", field: value}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"t_max": 1.2, "t_step": 0.01,
                                           "saturation": saturation}))
        assert main(["pipeline", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    def test_d12_with_a_coupling_file(self, tmp_path):
        config = PipelineConfig(system=str(write_two_spin_file(tmp_path)), d12=2.0)
        with pytest.raises(ValueError, match="d12 scales only the hexagon"):
            run_pipeline(config)

    def test_filter_order_out_of_range(self):
        with pytest.raises(ValueError):
            run_pipeline(PipelineConfig(filter_n=9, t_max=0.01, t_step=0.001))


class TestUPeakGain:
    def test_spectrum_without_the_u_line_gives_nan(self, graph6):
        f_u = pipeline._strongest_frequency(graph6, graph6.upper == graph6.index_all_up)
        with_u = StickSpectrum(np.array([f_u - 1.0, f_u]), np.array([1.0, 2.0]))
        # the nearest line is 1e-3 away, above the 1e-6 tolerance
        without_u = StickSpectrum(np.array([f_u - 1.0, f_u + 1e-3]), np.array([1.0, 4.0]))
        assert pipeline._u_peak_gain(with_u, with_u, graph6, 1e-6) == 1.0
        for saturated, thermal in ((without_u, with_u), (with_u, without_u)):
            with pytest.warns(RuntimeWarning, match="no line within 1e-06"):
                gain = pipeline._u_peak_gain(saturated, thermal, graph6, 1e-6)
            assert np.isnan(gain)
        assert pipeline._u_peak_gain(without_u, with_u, graph6, 2e-3) == 2.0


class TestPseudopureFidelity:
    def test_pure_excess_on_u_is_one(self):
        populations = np.full(8, -0.25)
        populations[7] = 1.0
        assert pseudopure_fidelity(populations, 7) == pytest.approx(1.0)

    def test_matches_correlation_coefficient(self):
        populations = np.random.default_rng(5).standard_normal(16)
        indicator = np.zeros(16)
        indicator[15] = 1.0
        assert pseudopure_fidelity(populations, 15) == pytest.approx(
            np.corrcoef(populations, indicator)[0, 1], abs=1e-15
        )

    @pytest.mark.parametrize("value", [0.0, 0.3, -2.0])
    def test_constant_populations_give_zero_without_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pseudopure_fidelity(np.full(64, value), 63) == 0.0


class TestDefaultSaturation:
    def test_hexagon_geometry(self, graph6):
        params = default_saturation(graph6)
        f_down = graph6.frequencies[graph6.lower == graph6.index_all_down][0]
        f_up = graph6.frequencies[graph6.upper == graph6.index_all_up][0]
        assert params.center_frequency == pytest.approx(f_down)
        assert params.width_sigma == pytest.approx(abs(f_up - f_down) / 4.0)
        assert params.mode == "steady_state"
        assert params.envelope(f_up) < 1e-3

    def test_custom_params_survive(self, tmp_path):
        params = SaturationParams(center_frequency=0.0, width_sigma=100.0)
        config = PipelineConfig(saturation=params, t_max=0.02, t_step=0.01)
        with pytest.warns(RuntimeWarning):  # boundary maximum on the stub grid
            report = run_pipeline(config)
        # an envelope covering everything equalizes all populations:
        # nothing is trapped, so the pseudopure signature is destroyed
        assert abs(report.p_u_drift) > 0.5
