"""The benchmark's entry points into the package, at the benchmark's tiny sizes.

``perfbench/workloads.py`` and ``perfbench/worker.py`` are imported as they
are, so renaming or deleting a package name they use fails here as well as
in the benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

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
