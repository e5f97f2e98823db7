"""The benchmark's entry points into the package, at the benchmark's tiny sizes.

``perfbench/workloads.py`` and ``perfbench/worker.py`` are imported as they
are, so renaming or deleting a package name they use fails here as well as
in the benchmark.  The CLI workloads run through ``main`` and their outputs
go through the benchmark's own checks.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from bardina_strip import operators, solver
from bardina_strip.cli import main
from bardina_strip.runio import load_config

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads"), importlib.import_module("worker")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["decay_observed", "fine_forced", "cli_mms",
                                  "cli_decay"])
def test_tiny_workload_inputs_run_and_pass_their_checks(bench, tmp_path, name):
    workloads, worker = bench
    wl = workloads.get_workload(name, tiny=True)
    inputs = workloads.generate(wl, 3, tmp_path, ROOT)
    if wl.cli:
        for key in ("cfg", "cfg_setup"):
            load_config(inputs[key])
        return
    _timing, state, series, modulus = worker.one_rep(wl, inputs["cfg"])
    assert workloads.check_inprocess(wl, state, series, modulus) == []


def test_fine_forced_above_the_dense_bound_passes_its_checks(bench, tmp_path, monkeypatch):
    # the tiny fine_forced (64 x 65) takes the dense solve and one advection
    # block; at 96 x 97 the solve is banded, and a smaller block bound gives
    # the advection 3 blocks
    workloads, worker = bench
    wl = dataclasses.replace(workloads.get_workload("fine_forced"), nx=96, ny=97, steps=4)
    assert (wl.nx // 2 + 1) * wl.ny ** 2 * 8 > solver.DENSE_INVERSE_BYTES
    monkeypatch.setattr(operators, "ADVECTION_BLOCK_BYTES", 8 * wl.nx * 40)
    inputs = workloads.generate(wl, 3, tmp_path, ROOT)
    _timing, state, series, modulus = worker.one_rep(wl, inputs["cfg"])
    assert workloads.check_inprocess(wl, state, series, modulus) == []


@pytest.mark.parametrize("layer", [("solver", "ImexStepper", "__init__"),
                                   ("weights", None, "make_weight_field"),
                                   ("operators", None, "d2sq_values")])
def test_set_up_layers_wrap_names_the_package_defines(layer):
    # the tracer skips a target the package lacks, so a renamed set-up name
    # would drop its layer number without an error
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    assert layer in [target[:3] for target in tracer.TARGETS]
    module, cls, attr = layer
    owner = importlib.import_module(f"bardina_strip.{module}")
    assert callable(vars(getattr(owner, cls) if cls else owner).get(attr))


@pytest.mark.parametrize("name", ["cli_mms", "cli_decay"])
def test_tiny_cli_workloads_run_and_pass_their_checks(bench, tmp_path, name):
    workloads, _worker = bench
    wl = workloads.get_workload(name, tiny=True)
    inputs = workloads.generate(wl, 3, tmp_path, ROOT)
    assert main(["run", str(inputs["cfg"])]) == 0
    assert workloads.check_cli_outputs(wl, inputs["cfg_out"], wl.steps) == []
