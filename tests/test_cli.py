import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bardina_strip
from bardina_strip.cli import main
from bardina_strip.runio import read_snapshot, read_timeseries, write_snapshot
from bardina_strip.solver import FieldSpec, SolverConfig, build_field

DECAY_CONFIG = """
nx = 32
ny = 33
alpha = 0.5
nu = 0.01
dt = 1e-3
t_end = 0.05
ic.kind = trig_clamped
ic.amplitude = 1.0
ic.k1 = 1
output.dir = {out}
output.every = 10
"""

POINCARE_CONFIG = """
nx = 32
ny = 33
epsilon = 0.05
seed = 3
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRun:

    def test_decay_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _write(tmp_path, DECAY_CONFIG.format(out=out))
        assert main(["run", cfg]) == 0
        captured = capsys.readouterr().out
        assert "integrated to t = 0.05" in captured
        cols = read_timeseries(out / "timeseries.csv")
        assert cols["E"][-1] < cols["E"][0]
        snap = read_snapshot(out / "final.bstr")
        assert (snap.nx, snap.ny) == (32, 33)
        assert snap.time == pytest.approx(0.05)

    def test_mismatched_snapshot_header_warns_on_stderr(self, tmp_path):
        src = str(Path(bardina_strip.__file__).resolve().parents[1])
        grid = SolverConfig(nx=32, ny=33).grid()
        snap = tmp_path / "ic.bstr"
        write_snapshot(snap, build_field(FieldSpec(kind="trig_clamped", amplitude=1.0), grid),
                       0.0, 0.5, 0.01)
        cfg = _write(tmp_path, (
            "nx = 32\nny = 33\nalpha = 0.25\nnu = 0.01\ndt = 1e-3\nt_end = 0.002\n"
            f"ic.kind = file\nic.path = {snap}\noutput.dir = {tmp_path / 'o'}\n"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "bardina_strip", "run", cfg],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert "UserWarning" in result.stderr
        assert "alpha = 0.5, nu = 0.01; this run has alpha = 0.25, nu = 0.01" in result.stderr

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, DECAY_CONFIG.format(out=out))
        assert main(["run", cfg]) == 0
        first_ts = (out / "timeseries.csv").read_bytes()
        first_snap = (out / "final.bstr").read_bytes()
        assert main(["run", cfg]) == 0
        assert (out / "timeseries.csv").read_bytes() == first_ts
        assert (out / "final.bstr").read_bytes() == first_snap

    def test_zero_viscosity_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "nu = 0\n")
        assert main(["run", cfg]) == 2
        assert "nu must be positive" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "viscosity = 0.1\n")
        assert main(["run", cfg]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_zero_output_cadence_names_the_key(self, tmp_path, capsys):
        cfg = _write(tmp_path, "output.every = 0\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "output.every must be >= 1" in err and "record_every" not in err

    def test_gamma_above_threshold_names_the_flag(self, tmp_path, capsys):
        cfg = _write(tmp_path, "gamma = 0.9\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "--override-gamma" in err and "allow_gamma_override" not in err

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "nx = abc\n")
        assert main(["run", cfg]) == 2
        assert "line 1: key 'nx'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2

    def test_overflowing_step_count_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, ("t_end = 1e300\ndt = 1e-300\n"
                                f"output.dir = {tmp_path / 'o'}\n"))
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "t_end" in err and "dt" in err

    def test_step_count_above_max_steps_is_config_error(self, tmp_path, capsys):
        # 1e15 steps: the run would print nothing and never end
        cfg = _write(tmp_path, ("t_end = 1e12\ndt = 1e-3\n"
                                f"output.dir = {tmp_path / 'o'}\n"))
        assert main(["run", cfg]) == 2
        assert "t_end / dt" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["ic", "forcing"])
    def test_directory_as_snapshot_is_config_error(self, tmp_path, capsys, prefix):
        cfg = _write(tmp_path, (f"{prefix}.kind = file\n{prefix}.path = {tmp_path}\n"
                                f"output.dir = {tmp_path / 'o'}\n"))
        assert main(["run", cfg]) == 2
        assert f"{prefix}.path" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["ic", "forcing"])
    def test_missing_snapshot_is_config_error(self, tmp_path, capsys, prefix):
        absent = tmp_path / "absent.bstr"
        cfg = _write(tmp_path, (f"{prefix}.kind = file\n{prefix}.path = {absent}\n"
                                f"output.dir = {tmp_path / 'o'}\n"))
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{prefix}.path" in err and "does not exist" in err

    @pytest.mark.parametrize("alpha", ["1e160", "1e200"])
    def test_overflowing_alpha_is_config_error(self, tmp_path, capsys, alpha):
        cfg = _write(tmp_path, f"alpha = {alpha}\noutput.dir = {tmp_path / 'o'}\n")
        assert main(["run", cfg]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_overflowing_wavenumbers_print_only_the_config_error(self, tmp_path, capsys):
        # kappa^2 overflows at lx = 1e-200: the operator check names it, and
        # numpy prints no warning of its own first
        import warnings
        cfg = _write(tmp_path, ("nx = 16\nny = 17\nlx = 1e-200\nalpha = 0\n"
                                f"output.dir = {tmp_path / 'o'}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: the implicit operator overflows at lx = 1e-200, m = 1, "
            "nu = 0.01, dt = 0.001\n")

    def test_blow_up_exit_code(self, tmp_path, capsys):
        import warnings

        from bardina_strip.solver import CflWarning
        cfg = _write(tmp_path, (
            "nx = 32\nny = 33\nalpha = 0.0\nnu = 1e-4\ndt = 0.2\nt_end = 4.0\n"
            "ic.kind = trig_clamped\nic.amplitude = 200.0\nic.k1 = 3\nic.k2 = 2\n"
            f"output.dir = {tmp_path / 'b'}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CflWarning)
            assert main(["run", cfg]) == 3
        assert "blow-up" in capsys.readouterr().err

    def test_blow_up_prints_step_and_last_finite_energy(self, tmp_path, capsys):
        import warnings

        from bardina_strip.solver import CflWarning
        cfg = _write(tmp_path, (
            "nx = 32\nny = 33\nalpha = 0.0\nnu = 1e-4\ndt = 0.2\nt_end = 4.0\n"
            "ic.kind = trig_clamped\nic.amplitude = 200.0\nic.k1 = 3\nic.k2 = 2\n"
            f"output.dir = {tmp_path / 'b'}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CflWarning)
            assert main(["run", cfg]) == 3
        err = capsys.readouterr().err
        assert "blow-up detected at step " in err
        assert "last finite energy E = " in err


class TestVerify:

    def test_poincare_suite_passes(self, tmp_path, capsys):
        cfg = _write(tmp_path, POINCARE_CONFIG)
        assert main(["verify", cfg, "--suite", "poincare"]) == 0
        out = capsys.readouterr().out
        assert "suite poincare" in out
        assert "ALL CHECKS PASSED" in out
        assert out.count("[PASS]") == 3

    def test_poincare_suite_keeps_the_gamma_override(self, tmp_path, capsys):
        cfg = _write(tmp_path, "nx = 32\nny = 33\ngamma = 1.0\n")
        assert main(["verify", cfg, "--suite", "poincare", "--override-gamma"]) == 0
        assert "ALL CHECKS PASSED" in capsys.readouterr().out

    def test_gamma_override_required(self, tmp_path, capsys):
        cfg = _write(tmp_path, "gamma = 1.0\n")
        assert main(["verify", cfg, "--suite", "weights"]) == 2
        assert "override" in capsys.readouterr().err

    def test_budget_suite_rejects_time_dependent_forcing(self, tmp_path, capsys):
        cfg = _write(tmp_path, (
            "nx = 16\nny = 17\ndt = 1e-3\nt_end = 0.002\nnu = 0.05\nalpha = 0.4\n"
            "forcing.kind = mms\nforcing.reference = two_mode\n"
            "ic.kind = mms\nic.reference = two_mode\n"))
        assert main(["verify", cfg, "--suite", "budget"]) == 2
        err = capsys.readouterr().err
        assert "time-independent" in err
        assert "forcing.kind = mms" in err

    def test_budget_suite_rejects_pulsing_reference(self, tmp_path, capsys):
        cfg = _write(tmp_path, (
            "nx = 16\nny = 17\ndt = 1e-3\nt_end = 0.002\nnu = 0.05\nalpha = 0.4\n"
            "forcing.kind = mms\nforcing.reference = pulsing_mode\n"
            "ic.kind = mms\nic.reference = pulsing_mode\n"))
        assert main(["verify", cfg, "--suite", "budget"]) == 2
        assert "time-independent" in capsys.readouterr().err

    @pytest.mark.parametrize("reference", ["steady_mode", "zero_field"])
    def test_budget_suite_runs_for_time_independent_mms(self, tmp_path, capsys,
                                                         reference):
        cfg = _write(tmp_path, (
            "nx = 16\nny = 17\ndt = 1e-3\nt_end = 0.02\nnu = 0.05\nalpha = 0.4\n"
            f"forcing.kind = mms\nforcing.reference = {reference}\n"
            f"ic.kind = mms\nic.reference = {reference}\n"))
        assert main(["verify", cfg, "--suite", "budget"]) == 0
        out = capsys.readouterr().out
        assert "suite budget" in out and "ALL CHECKS PASSED" in out

    def test_unknown_suite_rejected_by_parser(self, tmp_path):
        cfg = _write(tmp_path, "nx = 16\n")
        with pytest.raises(SystemExit):
            main(["verify", cfg, "--suite", "nonsense"])


class TestCompareNse:

    def test_single_zero_alpha_gives_zero_difference(self, tmp_path, capsys):
        cfg = _write(tmp_path, DECAY_CONFIG.format(out=tmp_path / "o"))
        assert main(["compare-nse", cfg, "--alphas", "0"]) == 0
        out = capsys.readouterr().out
        assert "0.000000000e+00" in out

    def test_descending_alphas_enforced(self, tmp_path, capsys):
        cfg = _write(tmp_path, DECAY_CONFIG.format(out=tmp_path / "o"))
        assert main(["compare-nse", cfg, "--alphas", "0.1,0.2"]) == 2
        assert "descending" in capsys.readouterr().err

    def test_sweep_reports_slope(self, tmp_path, capsys):
        cfg = _write(tmp_path, DECAY_CONFIG.format(out=tmp_path / "o"))
        assert main(["compare-nse", cfg, "--alphas", "0.4,0.2"]) == 0
        out = capsys.readouterr().out
        assert "log-log slope" in out


class TestEntryPoint:

    def test_module_invocation(self):
        src = str(Path(bardina_strip.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "bardina_strip", "--help"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert "compare-nse" in result.stdout

    def test_import_leaves_sympy_out(self, tmp_path):
        # sympy is a test dependency only: no module under src/ imports it,
        # and a manufactured-solution run never loads it
        src = Path(bardina_strip.__file__).resolve().parents[1]
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert all(n.split(".")[0] != "sympy" for n in names), path
        cfg = _write(tmp_path, (
            "nx = 16\nny = 17\ndt = 1e-3\nt_end = 0.002\nnu = 0.05\nalpha = 0.4\n"
            "forcing.kind = mms\nforcing.reference = two_mode\n"
            f"ic.kind = mms\nic.reference = two_mode\noutput.dir = {tmp_path / 'out'}\n"))
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                f"from bardina_strip.cli import main; rc = main(['run', {cfg!r}]); "
                "print(rc, 'sympy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"
