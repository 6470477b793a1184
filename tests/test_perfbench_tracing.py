"""The benchmark's tracer (perfbench/tracing.py) still finds what it wraps.

The tracer replaces mqpure callables by name from outside the package, so
a renamed or deleted function would only surface as a ``KeyError`` in a
traced benchmark run.  The file is loaded as is and never modified.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

import mqpure
import mqpure.cli  # noqa: F401  (the tracer wraps cli.main)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing) -> dict:
    """Every name bound in an mqpure module or a traced class, with its value."""
    owners = [m for key, m in sys.modules.items() if key == "mqpure" or key.startswith("mqpure.")]
    owners += [getattr(sys.modules[f"mqpure.{module}"], path.split(".")[0])
               for _, module, path in tracing.TARGETS if "." in path]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_every_target_resolves(tracing):
    missing = []
    for _, module, path in tracing.TARGETS:
        owner = sys.modules[f"mqpure.{module}"]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if classes:
            # the tracer reads methods from the class's own __dict__
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{path}")
    assert missing == []


def test_extractor_factories_exist(tracing):
    evolution = sys.modules["mqpure.evolution"]
    assert all(callable(getattr(evolution, name, None)) for name in tracing.EXTRACTOR_FACTORIES)


def test_install_then_uninstall_restores_originals(tracing):
    before = bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = bindings(tracing)
        mqpure.thermal_state(mqpure.build_basis(2))
    finally:
        tracer.uninstall()
    replaced = [key for key in before if during[key] is not before[key]]
    assert len(replaced) >= len(tracing.TARGETS)
    assert "spin_core.thermal_state" in [span[3] for span in tracer.spans]
    after = bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_traced_pipeline_gives_the_untraced_report(tracing, tmp_path):
    # traced, the extractor factories hand sweep wrapper functions that
    # carry the observables' fields, and the writers run inside spans
    config = mqpure.PipelineConfig(t_max=1.2, t_step=0.01)
    untraced = mqpure.pipeline.run_pipeline(
        dataclasses.replace(config, out_dir=str(tmp_path / "untraced")))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = mqpure.pipeline.run_pipeline(
            dataclasses.replace(config, out_dir=str(tmp_path / "traced")))
    finally:
        tracer.uninstall()
    assert "evolution.sweep" in [span[3] for span in tracer.spans]
    assert "output.to_csv" in [span[3] for span in tracer.spans]
    assert traced.to_json() == untraced.to_json()
    names = sorted(path.name for path in (tmp_path / "untraced").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "traced").iterdir())
    assert len(names) == 8
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() == \
            (tmp_path / "untraced" / name).read_bytes(), name
