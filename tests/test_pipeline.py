import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqpure import pipeline
from mqpure import (
    NumericalInvariantError,
    PipelineConfig,
    SaturationParams,
    SpinSystem,
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
        report = run_pipeline(config)
        assert report.f_homq > 1e-3
        assert report.f_overall == pytest.approx(report.f_homq * report.f_convert, rel=1e-12)


    def test_rejects_nan_spectrum_in_a_later_block(self, tmp_path, monkeypatch):
        def diagonalize_with_nan(h):
            eig = diagonalize(h)
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
        table = sweep(
            rho, h, np.arange(0.0, 0.5005, 0.001),
            {"F2": mq_intensity_extractor(basis, 2, normalize=rho.purity())},
        )
        located = locate_maximum(table, "F2")
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

    def test_filter_order_out_of_range(self):
        with pytest.raises(ValueError):
            run_pipeline(PipelineConfig(filter_n=9, t_max=0.01, t_step=0.001))


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
