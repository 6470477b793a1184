import numpy as np
import pytest

from mqpure import (
    Observable,
    PipelineConfig,
    SweepTable,
    build_basis,
    build_transition_graph,
    diag_pair_extractor,
    diagonalize,
    dq_hamiltonian,
    hexagon_couplings,
    mq_intensity_extractor,
    run_pipeline,
    secular_dipolar_hamiltonian,
    sweep,
    thermal_state,
)

ACCEPTANCE_GRID = np.arange(0.0, 2.0005, 0.001)


@pytest.fixture(scope="session")
def hexagon_system():
    return hexagon_couplings()


@pytest.fixture(scope="session")
def basis6():
    return build_basis(6)


@pytest.fixture(scope="session")
def h_av6(hexagon_system, basis6):
    return dq_hamiltonian(hexagon_system, basis6)


@pytest.fixture(scope="session")
def eig6(h_av6):
    return diagonalize(h_av6)


@pytest.fixture(scope="session")
def thermal6(basis6):
    return thermal_state(basis6)


@pytest.fixture(scope="session")
def graph6(hexagon_system, basis6):
    h_dd = secular_dipolar_hamiltonian(hexagon_system, basis6)
    return build_transition_graph(h_dd, basis6)


@pytest.fixture(scope="session")
def thermal_sweep(thermal6, eig6, basis6):
    """Full-resolution thermal sweep shared by evolution/mq/acceptance tests."""
    up, down = basis6.index_all_up, basis6.index_all_down
    observables = {f"I{k}": mq_intensity_extractor(basis6, k) for k in range(7)}
    observables["diag_pair"] = diag_pair_extractor(basis6)
    observables["re_ud"] = Observable([up * basis6.dim + down], squared=False)
    table = sweep(thermal6, eig6, ACCEPTANCE_GRID, observables)
    return SweepTable(table.times, {**table.columns, "re_ud": np.abs(table.column("re_ud"))})


@pytest.fixture(scope="session")
def pipeline_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline_out")
    return run_pipeline(PipelineConfig(out_dir=str(out))), out
