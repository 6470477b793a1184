"""The column-wise CSV writers give the bytes of a row-by-row ``csv.writer``.

Each reference below is the writer as it was before the columns were
formatted in bulk: one ``writerow`` per row of ``repr(float(x))`` strings
(integers and the m values as ``csv.writer`` turns them into text).
"""

import csv
import dataclasses

import numpy as np
import pytest

from mqpure import (
    StickSpectrum,
    SweepTable,
    build_basis,
    build_transition_graph,
    curve_to_csv,
    secular_dipolar_hamiltonian,
    thermal_state,
)
from mqpure import pipeline
from mqpure.hamiltonians import build_system
from mqpure.output import write_csv
from mqpure.spin_core import DensityMatrix

# every float the writers must not reformat: signed zeros, the specials,
# subnormals and the extremes of the normal range
AWKWARD = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, -2.2250738585072014e-308,
           1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e16, 123456789.0]


def reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def same_bytes(tmp_path, write, header, rows):
    write(tmp_path / "new.csv")
    reference(tmp_path / "old.csv", header, rows)
    return (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_sweep_table(tmp_path):
    times = np.arange(len(AWKWARD), dtype=float)
    columns = {"I0": np.array(AWKWARD), "a,b": np.array(AWKWARD[::-1]), 'say "x"': -times}
    table = SweepTable(times=times, columns=columns)
    names = list(columns)
    rows = [[repr(float(t))] + [repr(float(table.columns[n][k])) for n in names]
            for k, t in enumerate(table.times)]
    assert same_bytes(tmp_path, table.to_csv, ["t"] + names, rows)
    assert (tmp_path / "new.csv").read_bytes().startswith(b't,I0,"a,b","say ""x"""\r\n')


def test_transition_graph(tmp_path, graph6):
    edges = graph6.n_edges
    awkward = np.resize(AWKWARD, edges)
    for graph in (graph6, dataclasses.replace(graph6, frequencies=awkward,
                                              strengths=np.abs(awkward))):
        rows = [[int(graph.upper[k]), int(graph.lower[k]), graph.m_values[graph.upper[k]],
                 graph.m_values[graph.lower[k]], repr(float(graph.frequencies[k])),
                 repr(float(graph.strengths[k]))] for k in range(edges)]
        header = ["a", "b", "m_a", "m_b", "frequency", "strength"]
        assert same_bytes(tmp_path, graph.to_csv, header, rows)


@pytest.mark.parametrize("lines", [0, 1, len(AWKWARD)])
def test_stick_spectrum(tmp_path, lines):
    stick = StickSpectrum(frequencies=np.arange(lines) - 0.5, intensities=AWKWARD[:lines])
    rows = [[repr(float(f)), repr(float(i))] for f, i in zip(stick.frequencies,
                                                               stick.intensities)]
    assert same_bytes(tmp_path, stick.to_csv, ["frequency", "intensity"], rows)


def test_curve(tmp_path):
    grid = list(range(len(AWKWARD)))  # integers are written as floats
    rows = [[repr(float(f)), repr(float(a))] for f, a in zip(grid, AWKWARD)]
    assert same_bytes(tmp_path, lambda path: curve_to_csv(grid, np.array(AWKWARD), path),
                      ["frequency", "amplitude"], rows)


def test_labels_and_integer_columns(tmp_path):
    header = ["stage", "count", "value"]
    labels = ["thermal", "excited"]
    rows = [["thermal", 3, repr(-0.0)], ["excited", -7, repr(5e-324)]]
    assert same_bytes(tmp_path, lambda path: write_csv(path, header, [np.array([3, -7]),
                                                                     np.array([-0.0, 5e-324])],
                                                       labels=labels), header, rows)


@pytest.mark.filterwarnings("ignore:overflow encountered in square")
def test_stage_csvs(tmp_path):
    # the two stage files of a hexagon run, with awkward populations
    system = build_system("hexagon", 1.0)
    basis = build_basis(6)
    graph = build_transition_graph(secular_dipolar_hamiltonian(system, basis), basis)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((basis.dim, basis.dim))
    stages = (thermal_state(basis), DensityMatrix(matrix=raw + raw.T),
              DensityMatrix(matrix=np.zeros((basis.dim, basis.dim))), thermal_state(basis))
    pops = [np.resize(AWKWARD[k:] + AWKWARD[:k], graph.n_states) for k in range(3)]
    spectra = {"thermal": StickSpectrum(frequencies=[], intensities=[], merged=True)}
    table = SweepTable(times=[0.0], columns={"I0": [1.0]})
    report = pipeline.PipelineReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    pipeline._write_outputs(tmp_path, report, table, basis, stages, *pops, graph, spectra)

    n = basis.n_spins
    names = ("thermal", "excited", "filtered", "reversed")
    rows = [[name] + [repr(float(x)) for x in pipeline.mq.mq_intensities(rho, basis)]
            for name, rho in zip(names, stages)]
    rows += [[name, repr(float(np.sum(p**2)))] + [repr(0.0)] * n
             for name, p in (("crushed", pops[1]), ("saturated", pops[2]))]
    reference(tmp_path / "old.csv", ["stage"] + [f"I{k}" for k in range(n + 1)], rows)
    assert (tmp_path / "stage_mq_intensities.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()

    rows = [[a, graph.m_values[a], repr(float(graph.energies[a]))]
            + [repr(float(p[a])) for p in pops] for a in range(graph.n_states)]
    reference(tmp_path / "old.csv",
              ["eigenstate", "m", "energy", "thermal", "crushed", "saturated"], rows)
    assert (tmp_path / "stage_populations.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()
