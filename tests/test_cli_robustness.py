"""Every command ends in an exit code, whatever it is given.

Hypothesis properties run ``mqpure sweep``, ``spectrum``, ``pipeline`` and
``filter-check`` in process on small grids over:

- coupling files drawn from the classes of bad input: values that are not
  finite, files too short or too wide, asymmetric matrices, a nonzero
  diagonal, malformed spin counts, N from 0 to 13 and magnitudes from
  1e-320 to 1e308;
- pipeline configs: values of the wrong JSON type, NaN and +-inf, zero or
  negative times, filter orders out of range, unknown keys and bad
  ``saturation`` objects;
- population files for ``spectrum --state pseudopure-file``: wrong counts,
  entries that are not numbers or not finite, headers and comments;
- the flags of ``sweep``, ``spectrum`` and ``filter-check``.

Each run exits 0, 1 or 2 with no exception escaping ``main``, and exits 0
only where every value of every CSV it wrote is finite.  No exit 1 reports
an internal invariant or a failed eigendecomposition, which are exit 2.
Files, configs and flags that could run are kept at N <= 6 and at most
50 time points (1000 spectrum grid points), and filter-check at N <= 7
with at most 3 trials, so that no draw runs a large system.
"""

import contextlib
import csv
import io
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


# what exit 1 printed for an internal invariant of merge_peaks and for an
# eigh that did not converge; both are exit 2 now
NOT_VALIDATION_ERRORS = ("merged spectrum must have ascending frequencies", "did not converge")


def assert_ends_well(argv: list, out: Path) -> int:
    """Run ``main(argv)`` and check how it ended; return its exit code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        bad = [(file, value) for file, value in csv_values(out) if not math.isfinite(value)]
        assert bad == []
    if code == 1:
        assert not any(message in err.getvalue() for message in NOT_VALIDATION_ERRORS), \
            err.getvalue()
    return code


@pytest.mark.parametrize("name", ["sweep", "spectrum", "pipeline"])
@settings(max_examples=40, deadline=None)
@given(text=coupling_files())
def test_every_coupling_file_ends_in_an_exit_code(name, text):
    with tempfile.TemporaryDirectory() as work:
        system, out = Path(work) / "couplings.txt", Path(work) / "out"
        system.write_text(text)
        assert_ends_well(command(name, system, out), out)


# a 4-spin ring (site cycle), an odd 5-spin chain (identity) and the hexagon
SMALL_SYSTEMS = {
    "ring4": "4\n0 1 0.35 1\n1 0 1 0.35\n0.35 1 0 1\n1 0.35 1 0\n",
    "chain5": "5\n0 1 0 0 0.2\n1 0 0.8 0 0\n0 0.8 0 1.3 0\n0 0 1.3 0 -0.6\n0.2 0 0 -0.6 0\n",
}

BAD_VALUES = st.sampled_from([0.0, -1.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308,
                              1e-320, "1.0", True, None, [1.0], {}])
BAD_TOKENS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-320", "1e308", "-1e308",
                              "abc", "", "2.5", "0x10"])


def broken(draw, names) -> list:
    """The few of ``names`` that a draw makes bad; often none."""
    return draw(st.lists(st.sampled_from(sorted(names)), max_size=2, unique=True))


def system_file(system: str, work: Path) -> str:
    """The --system of one of ``SMALL_SYSTEMS`` or the hexagon, written into ``work``."""
    if system == "hexagon":
        return system
    path = work / "couplings.txt"
    path.write_text(SMALL_SYSTEMS[system])
    return str(path)


SATURATION_KEYS = {"rate_scale": st.floats(0.1, 10.0), "duration": st.floats(0.1, 10.0),
                   "mode": st.sampled_from(["timed", "steady_state"]),
                   "envelope_floor": st.floats(0.0, 0.5)}


@st.composite
def bad_saturations(draw):
    """A saturation object that is not one, or whose one key is bad or unknown."""
    if draw(st.booleans()):
        return draw(st.sampled_from([[1, 2], "steady", 3.0, {}, {"center_frequency": 0.0}]))
    saturation = {"center_frequency": 0.0, "width_sigma": 1.0}
    key = draw(st.sampled_from(["center_frequency", "width_sigma", *SATURATION_KEYS, "speed"]))
    bad = st.sampled_from(["bogus", 1]) if key == "mode" else BAD_VALUES | st.just(1e-200)
    saturation[key] = draw(bad)
    return saturation


VALID_FIELDS = {
    "t_prep": st.floats(0.01, 2.0),
    "d12": st.floats(0.5, 2.0),
    "saturation": st.none() | st.fixed_dictionaries(
        {"center_frequency": st.floats(-3.0, 3.0), "width_sigma": st.floats(0.01, 2.0)},
        optional=SATURATION_KEYS),
    "merge_tolerance": st.floats(1e-9, 1e-3),
    "intensity_floor": st.floats(0.0, 0.5),
    "unit": st.sampled_from(["cyclic", "angular"]),
}
BAD_FIELDS = {
    "t_prep": BAD_VALUES | st.just(1e10),
    "t_max": BAD_VALUES,
    "t_step": BAD_VALUES | st.just(1e-300),
    "d12": BAD_VALUES,
    "filter_n": st.sampled_from([-1, 0, 7, 2.5, "2", True]),
    "saturation": bad_saturations(),
    "merge_tolerance": BAD_VALUES,
    "intensity_floor": BAD_VALUES,
    "unit": st.sampled_from(["radians", 3, None]),
    "out_dir": st.sampled_from([5, 1.5, []]),
    "speed": st.just(1.0),
    # the whole config: not a JSON object, or a saturation key left out
    "config": st.sampled_from(['{"t_prep": ', "[]", "3", '{"saturation": {"width_sigma": 1}}']),
}


@st.composite
def pipeline_configs(draw) -> tuple:
    """A pipeline config, valid or not, and its system: a dict whose
    system is written in later, or the text of a config that is broken
    whole.  Valid times give at most 50 points."""
    system = draw(st.sampled_from(["hexagon", *SMALL_SYSTEMS]))
    step = draw(st.floats(0.02, 0.1))
    # the top order is excitable only in the hexagon, and d12 scales only it
    orders = [None, 2, 4, 6] if system == "hexagon" else [2]
    raw = {"system": system, "t_max": draw(st.integers(1, 49)) * step, "t_step": step,
           "filter_n": draw(st.sampled_from(orders))}
    for key in draw(st.lists(st.sampled_from(sorted(VALID_FIELDS)), unique=True)):
        if key != "d12" or system == "hexagon":
            raw[key] = draw(VALID_FIELDS[key])
    for key in broken(draw, BAD_FIELDS):
        raw[key] = draw(BAD_FIELDS[key])
    return raw.get("config", raw), system


@settings(max_examples=60, deadline=None)
@given(pipeline_configs())
def test_every_pipeline_config_ends_in_an_exit_code(drawn):
    raw, system = drawn
    with tempfile.TemporaryDirectory() as work:
        config, out = Path(work) / "config.json", Path(work) / "out"
        if isinstance(raw, dict):
            raw = json.dumps({**raw, "system": system_file(system, Path(work))})
        config.write_text(raw)
        assert_ends_well(["pipeline", "--config", str(config), "--out", str(out)], out)


@st.composite
def population_files(draw) -> tuple:
    """(system, text) of a population file for the hexagon or ring4, valid or not."""
    system = draw(st.sampled_from(["hexagon", "ring4"]))
    states = 64 if system == "hexagon" else 16
    defect = draw(st.sampled_from(["none", "none", "count", "token", "magnitude"]))
    count = draw(st.sampled_from([0, states - 1, states + 1])) if defect == "count" else states
    values = [repr(value) for value in draw(st.lists(
        MAGNITUDES if defect == "magnitude" else st.floats(-1.0, 1.0),
        min_size=count, max_size=count))]
    if defect == "token":
        values[draw(st.integers(0, count - 1))] = draw(BAD_TOKENS)
    layout = draw(st.sampled_from(["plain", "csv", "header", "comments"]))
    if layout == "csv":
        values = [f"{i},0.5,{value}" for i, value in enumerate(values)]
    elif layout == "header":
        values = ["eigenstate,m,energy,thermal,crushed,saturated", *values]
    elif layout == "comments":
        values = ["# populations", *[f"{value}  # state" for value in values], ""]
    return system, "\n".join(values) + "\n"


SPECTRUM_FLAGS = {"--linewidth": st.floats(1e-3, 1.0), "--merge-tol": st.floats(1e-9, 1e-2),
                  "--floor": st.floats(0.0, 0.5), "--grid-points": st.integers(1, 1000)}


@st.composite
def spectrum_flags(draw) -> list:
    """Flags of one spectrum run: each left at its default, valid or bad."""
    argv = ["--grid-points", "51"]
    for name in draw(st.lists(st.sampled_from(sorted(SPECTRUM_FLAGS)), unique=True)):
        argv += [name, str(draw(SPECTRUM_FLAGS[name]))]
    for name in broken(draw, SPECTRUM_FLAGS):
        argv += [name, draw(BAD_TOKENS | st.sampled_from(["-2", "1000001", "1e6"]))]
    return argv


@settings(max_examples=60, deadline=None)
@given(population_files(), spectrum_flags())
def test_every_population_file_and_spectrum_flag_ends_in_an_exit_code(drawn, flags):
    system, text = drawn
    with tempfile.TemporaryDirectory() as work:
        populations, out = Path(work) / "populations.csv", Path(work) / "out"
        populations.write_text(text)
        assert_ends_well(["spectrum", "--system", system_file(system, Path(work)),
                          "--state", "pseudopure-file", "--state-file", str(populations),
                          *flags, "--out", str(out)], out)


@st.composite
def sweep_flags(draw) -> list:
    """--t-max and --t-step that give at most 50 points, or a bad value."""
    step = draw(st.floats(0.02, 0.1))
    values = {"--t-max": repr(draw(st.integers(1, 49)) * step), "--t-step": repr(step)}
    for name in broken(draw, values):
        values[name] = draw(BAD_TOKENS)
    return [token for item in values.items() for token in item]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["hexagon", *SMALL_SYSTEMS]), st.sampled_from(["thermal", "homq"]),
       sweep_flags())
def test_every_sweep_flag_ends_in_an_exit_code(system, state, flags):
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        assert_ends_well(["sweep", "--system", system_file(system, Path(work)), "--state", state,
                          *flags, "--out", str(out)], out)


@st.composite
def filter_check_flags(draw) -> list:
    """filter-check at 1-7 spins, up to 3 trials and up to 64 phase steps, or a bad value."""
    n = draw(st.integers(1, 7))
    values = {"--n-spins": n, "--trials": draw(st.integers(1, 3)),
              "--seed": draw(st.integers(0, 2**70)),
              "--k-steps": draw(st.none() | st.integers(2 * n + 1, 64))}
    bad = {"--n-spins": st.just(0), "--trials": st.integers(-1, 0),
           "--seed": st.integers(-2**70, -1), "--k-steps": st.integers(-2, 2 * n)}
    for name in broken(draw, bad):
        values[name] = draw(bad[name] | BAD_TOKENS)
    return [token for name, value in values.items() if value is not None
            for token in (name, str(value))]


@settings(max_examples=40, deadline=None)
@given(filter_check_flags())
def test_every_filter_check_ends_in_an_exit_code(flags):
    with tempfile.TemporaryDirectory() as work:
        assert_ends_well(["filter-check", *flags], Path(work))


def test_clusters_one_ulp_apart_make_a_spectrum(tmp_path):
    # the frequencies reach 2e16, where adjacent floats lie 4 apart: two
    # merged lines once rounded out of order, and spectrum exited 1
    system = tmp_path / "couplings.txt"
    system.write_text("5\n0 0 -1e16 0 1.75\n0 0 0 0 0\n-1e16 0 0 1 0\n0 0 1 0 0\n"
                      "1.75 0 0 0 0\n")
    out = tmp_path / "out"
    assert assert_ends_well(command("spectrum", system, out), out) == 0
