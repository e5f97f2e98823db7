"""The benchmark's own test: every workload at a tiny size, and its checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", name, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert "failed_frac" in proc.stdout


@pytest.fixture
def cli_output(tmp_path):
    from bardina_strip.cli import main

    wl = workloads.get_workload("cli_decay", tiny=True)
    inputs = workloads.generate(wl, 3, tmp_path, ROOT)
    assert main(["run", str(inputs["cfg"])]) == 0
    out = inputs["cfg_out"]
    reference = workloads.output_bytes(out)
    assert workloads.check_cli_run(wl, out, wl.steps, reference) == []
    return wl, out, reference


@pytest.mark.parametrize("offset", [2, -3])  # the header magic; a payload value
def test_flipped_byte_in_final_snapshot_fails_the_check(cli_output, offset):
    wl, out, reference = cli_output
    snap = out / "final.bstr"
    raw = bytearray(snap.read_bytes())
    raw[offset] ^= 0x01
    snap.write_bytes(bytes(raw))
    assert workloads.check_cli_run(wl, out, wl.steps, reference) != []
