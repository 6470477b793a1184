"""Every command ends in an exit code, whatever coupling file it is given.

A Hypothesis property runs ``mqpure sweep``, ``spectrum`` and ``pipeline``
in process on small grids over coupling files drawn from the classes of
bad input: values that are not finite, files too short or too wide,
asymmetric matrices, a nonzero diagonal, malformed spin counts, N from
0 to 13 and magnitudes from 1e-320 to 1e308.  Each run exits 0, 1 or 2
with no exception escaping ``main``, and exits 0 only where every value
of every CSV it wrote is finite.  Files that could run are kept at
N <= 6, so that no draw runs a large system.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mqpure.cli import main

# each of these leaves a file that no command can run, at any N
SURE_DEFECTS = ["not-finite", "short", "wide", "count"]
# these may leave a file that runs (a diagonal within 1e-12 of the couplings)
DEFECTS = ["none", "asymmetric", "diagonal"] + SURE_DEFECTS

# couplings of the usual scale too, so that many files run to the end
MAGNITUDES = st.one_of(st.just(0.0), st.floats(-3.0, 3.0), st.floats(1e-320, 1e308),
                       st.floats(-1e308, -1e-320))


@st.composite
def coupling_files(draw) -> str:
    """The text of a coupling file, valid or not; one that could run has N <= 6."""
    n = draw(st.integers(0, 13))
    if n <= 6 or n == 13:
        defect = draw(st.one_of(st.just("none"), st.sampled_from(DEFECTS)))
    else:
        defect = draw(st.sampled_from(SURE_DEFECTS))
    upper = draw(st.lists(MAGNITUDES, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    rows = [["0.0"] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), value in zip(pairs, upper):
        rows[i][j] = rows[j][i] = repr(value)
    count = str(n)
    if defect == "not-finite" and n:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif defect == "asymmetric" and pairs:
        i, j = draw(st.sampled_from(pairs))
        rows[i][j] = repr(draw(MAGNITUDES))
    elif defect == "diagonal" and n:
        i = draw(st.integers(0, n - 1))
        rows[i][i] = repr(draw(MAGNITUDES.filter(bool)))
    elif defect == "count":
        count = draw(st.sampled_from([f"{n}.0", f"-{n}", "abc", f"{n}e0", "0x2", "²"]))
    entries = [value for row in rows for value in row]
    if defect == "short" or (defect == "not-finite" and not n):
        entries = entries[:draw(st.integers(0, max(len(entries) - 1, 0)))]
    elif defect == "wide":
        entries += [repr(value) for value in draw(st.lists(MAGNITUDES, min_size=1, max_size=n + 1))]
    return count + "\n" + " ".join(entries) + "\n"


def command(name: str, system: Path, out: Path) -> list:
    """The arguments of one small run of ``name`` on the coupling file ``system``."""
    if name == "sweep":
        return ["sweep", "--system", str(system), "--t-max", "0.02", "--t-step", "0.01",
                "--out", str(out)]
    if name == "spectrum":
        return ["spectrum", "--system", str(system), "--grid-points", "51", "--out", str(out)]
    config = out.parent / "config.json"
    config.write_text(json.dumps({"system": str(system), "t_prep": 0.01, "t_max": 0.03,
                                  "t_step": 0.01, "filter_n": 2}))
    return ["pipeline", "--config", str(config), "--out", str(out)]


def csv_values(out: Path):
    """Every field of every CSV under ``out`` that reads as a number."""
    for path in sorted(out.glob("*.csv")):
        with open(path) as fh:
            for row in list(csv.reader(fh))[1:]:
                for field in row:
                    try:
                        yield path.name, float(field)
                    except ValueError:  # a label, such as a stage name
                        continue


@pytest.mark.parametrize("name", ["sweep", "spectrum", "pipeline"])
@settings(max_examples=40, deadline=None)
@given(text=coupling_files())
def test_every_coupling_file_ends_in_an_exit_code(name, text):
    with tempfile.TemporaryDirectory() as work:
        system, out = Path(work) / "couplings.txt", Path(work) / "out"
        system.write_text(text)
        code = main(command(name, system, out))
        assert code in (0, 1, 2)
        if code == 0:
            bad = [(file, value) for file, value in csv_values(out) if not math.isfinite(value)]
            assert bad == []
