import ast
import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bardina_strip
from bardina_strip.cli import main
from bardina_strip.runio import read_snapshot, read_timeseries, write_snapshot
from bardina_strip.solver import CflWarning, FieldSpec, SolverConfig, build_field

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

# positive config values, mostly moderate, some near the ends of the float range
_SCALE = st.one_of(st.floats(min_value=1e-3, max_value=1e3),
                   st.sampled_from([1e-300, 1e-150, 1e-80, 1e80, 1e150, 1e300]))
# (kind, amplitude) of the initial condition or the forcing
_FIELD = st.tuples(st.sampled_from(["zero", "trig_clamped", "mms"]),
                   st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                             st.sampled_from([1e80, 1e150, 1e155, 1e160, 1e200, 1e300])))



def _small_run(**over):
    """A pinned example of the small-run property: 8x9, no fields, unit scales."""
    return example(**{**dict(nx=8, ny=9, steps=0, scheme="imex_euler", lx=1.0, m=1.0,
                             nu=1.0, dt=1.0, alpha=0.0, ic=("zero", 0.0),
                             forcing=("zero", 0.0)), **over})


def _printed_numbers(text):
    """Every token of ``text`` that reads as a float, the lines naming the
    written files left out."""
    numbers = []
    for line in text.splitlines():
        if line.startswith("wrote "):
            continue
        for token in line.replace(",", " ").replace("(", " ").split():
            try:
                numbers.append(float(token))
            except ValueError:
                pass
    return numbers


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _package_env():
    """The environment with this checkout's package first on ``PYTHONPATH``."""
    src = str(Path(bardina_strip.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _write(tmp_path, DECAY_CONFIG.format(out=out))
        assert main(["run", cfg]) == 0
        first_out = capsys.readouterr().out
        first_ts = (out / "timeseries.csv").read_bytes()
        first_snap = (out / "final.bstr").read_bytes()
        assert main(["run", cfg]) == 0
        assert capsys.readouterr().out == first_out
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

    @pytest.mark.parametrize("key", ["output.dir", "ic.path", "forcing.path"])
    def test_path_the_os_refuses_names_the_key(self, tmp_path, capsys, key):
        # a name longer than any file system takes, which the OS refuses to look up
        kind = "" if key == "output.dir" else f"{key.split('.')[0]}.kind = file\n"
        cfg = _write(tmp_path, f"{kind}{key} = {tmp_path / ('1' + '0' * 300)}\n")
        assert main(["run", cfg]) == 2
        assert f"error: {key} " in capsys.readouterr().err

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

    @pytest.mark.parametrize("grid", ["nx = 16\nny = 17\n", "nx = 128\nny = 129\n"],
                             ids=["inverse", "superlu"])
    def test_singular_operator_is_config_error(self, tmp_path, capsys, grid):
        # one grid on each side of DENSE_INVERSE_BYTES; the x2 stencil
        # underflows at m = 1e200
        cfg = _write(tmp_path, grid + f"m = 1e200\noutput.dir = {tmp_path / 'o'}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: the implicit operator is singular at lx = 6.28319, m = 1e+200, "
            "nu = 0.01, dt = 0.001\n")

    def test_overflowing_initial_energy_is_config_error(self, tmp_path, capsys):
        # E = inf would reach a timeseries.csv that read_timeseries refuses
        out = tmp_path / "o"
        cfg = _write(tmp_path, ("nx = 16\nny = 17\nt_end = 0\nic.kind = trig_clamped\n"
                                f"ic.amplitude = 1e200\noutput.dir = {out}\n"))
        assert main(["run", cfg]) == 2
        assert "ic.amplitude = 1e+200" in capsys.readouterr().err
        assert not (out / "timeseries.csv").exists()

    @pytest.mark.parametrize("amplitude", ["1e155", "1e160"])
    def test_overflowing_closed_bound_is_config_error(self, tmp_path, capsys, amplitude):
        # |g|^2 overflows, or |g| already: an infinite bound checks nothing
        cfg = _write(tmp_path, ("nx = 16\nny = 17\nt_end = 0\nforcing.kind = trig_clamped\n"
                                f"forcing.amplitude = {amplitude}\n"
                                f"output.dir = {tmp_path / 'o'}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the closed bound ") and err.count("\n") == 1
        assert f"forcing.amplitude = {float(amplitude)}" in err

    def test_overflowing_summary_is_config_error(self, tmp_path, capsys):
        # every column is finite, but the weighted dissipation integrated
        # over t_end = 1e80 is not
        out = tmp_path / "o"
        cfg = _write(tmp_path, ("nx = 8\nny = 9\nlx = 1\nm = 1\nnu = 1\ndt = 1e80\n"
                                "t_end = 1e80\nalpha = 1e150\nic.kind = trig_clamped\n"
                                f"ic.amplitude = 1\noutput.dir = {out}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CflWarning)
            assert main(["run", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: the integral of weighted dissipation is inf")
        assert "alpha = 1e+150" in captured.err and "t_end = 1e+80" in captured.err

    @settings(max_examples=150, deadline=None)
    @given(nx=st.sampled_from([8, 16]), ny=st.sampled_from([9, 17]),
           steps=st.integers(0, 2), scheme=st.sampled_from(["imex_euler", "imex_cnab2"]),
           lx=_SCALE, m=_SCALE, nu=_SCALE, dt=_SCALE, alpha=st.just(0.0) | _SCALE,
           ic=_FIELD, forcing=_FIELD)
    # the radical of the weight overflows: numpy warned, the cutoff is constant there
    @_small_run(lx=1e150)
    # the cell area dx * dy overflows
    @_small_run(lx=1e300, m=1e80)
    # nu lambda1^2 underflows to 0: energy_budget divided by zero
    @_small_run(m=1e80, nu=1e-150)
    @_small_run(m=1e80, nu=1e-150, forcing=("mms", 1.0))
    # the manufactured forcing overflows: numpy warned, Field refused it unnamed
    @_small_run(lx=2.3, m=0.002, nu=1e150, alpha=1e80, forcing=("mms", 1.0))
    # the integral of the weighted dissipation overflows: numpy warned, and
    # then it printed inf and exited 0
    @_small_run(steps=1, dt=1e80, alpha=1e150, ic=("trig_clamped", 1.0))
    def test_any_small_run_exits_0_or_2_with_finite_columns(
            self, nx, ny, steps, scheme, lx, m, nu, dt, alpha, ic, forcing):
        # a run that steps may also blow up (exit 3); none writes a column
        # that read_timeseries refuses
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            text = (f"nx = {nx}\nny = {ny}\nlx = {lx!r}\nm = {m!r}\nnu = {nu!r}\n"
                    f"dt = {dt!r}\nt_end = {steps * dt!r}\nalpha = {alpha!r}\n"
                    f"scheme = {scheme}\noutput.dir = {out}\n")
            for section, (kind, amplitude) in (("ic", ic), ("forcing", forcing)):
                text += (f"{section}.kind = {kind}\n{section}.amplitude = {amplitude!r}\n"
                         f"{section}.reference = two_mode\n")
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()) as printed, \
                    contextlib.redirect_stderr(io.StringIO()) as err, \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", CflWarning)
                code = main(["run", str(cfg)])
            assert code in ((0, 2) if steps == 0 else (0, 2, 3)), err.getvalue()
            if code == 0:
                assert len(read_timeseries(out / "timeseries.csv")["t"]) == steps + 1
                numbers = _printed_numbers(printed.getvalue())
                assert numbers and all(map(math.isfinite, numbers)), printed.getvalue()
            else:
                assert not (out / "timeseries.csv").exists()

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


    def test_run_prints_the_energy_budget(self, tmp_path, capsys):
        cfg = _write(tmp_path, DECAY_CONFIG.format(out=tmp_path / "out"))
        assert main(["run", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        prefixes = ["integrated to t = 0.05 (50 steps)", "energy: ",
                    "max per-record energy increase: ", "max excess over the closed bound: ",
                    "weighted energy: ", "integral of weighted dissipation: ",
                    f"wrote {tmp_path}"]
        assert len(lines) == len(prefixes)
        assert all(line.startswith(prefix) for line, prefix in zip(lines, prefixes))
        assert lines[2] == "max per-record energy increase: 0.000e+00"
        assert lines[4].startswith("weighted energy: initial ")

    @pytest.mark.parametrize("reference", ["two_mode", "pulsing_mode", "steady_mode",
                                           "zero_field"])
    def test_every_mms_reference_prints_the_closed_bound(self, tmp_path, capsys,
                                                         reference):
        cfg = _write(tmp_path, (
            "nx = 16\nny = 17\ndt = 1e-3\nt_end = 0.002\nnu = 0.05\nalpha = 0.4\n"
            f"forcing.kind = mms\nforcing.reference = {reference}\n"
            f"ic.kind = mms\nic.reference = {reference}\noutput.dir = {tmp_path / 'o'}\n"))
        assert main(["run", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].startswith("max excess over the closed bound: ")

    def test_forced_run_from_rest_exits_zero(self, tmp_path, capsys):
        # the initial weighted energy is 0, so the summary prints no ratio of it
        cfg = _write(tmp_path, (
            "nx = 16\nny = 17\nt_end = 0.01\nic.kind = zero\n"
            "forcing.kind = trig_clamped\nforcing.amplitude = 1.0\n"
            f"output.dir = {tmp_path / 'o'}\n"))
        assert main(["run", cfg]) == 0
        assert "weighted energy: initial 0, sup " in capsys.readouterr().out

    def test_config_path_naming_a_directory_is_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("refused", ["name_too_long", "under_a_file"])
    def test_config_path_the_os_refuses_is_config_error(self, tmp_path, capsys, refused):
        if refused == "name_too_long":  # ENAMETOOLONG
            path = str(tmp_path / ("a" * 301 + ".cfg"))
        else:  # ENOTDIR
            path = str(Path(_write(tmp_path, DECAY_CONFIG.format(out=tmp_path / "o"))) / "x")
        for command in (["run"], ["verify", "--suite", "budget"]):
            assert main([*command, path]) == 2
            assert path in capsys.readouterr().err

    def test_output_dir_naming_a_file_is_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = _write(tmp_path, f"nx = 16\nny = 17\nt_end = 0\noutput.dir = {taken}\n")
        assert main(["run", cfg]) == 2
        assert "output.dir" in capsys.readouterr().err


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

    @staticmethod
    def _budget_suite_passes(tmp_path, capsys, reference):
        cfg = _write(tmp_path, (
            "nx = 16\nny = 17\ndt = 1e-3\nt_end = 0.02\nnu = 0.05\nalpha = 0.4\n"
            f"forcing.kind = mms\nforcing.reference = {reference}\n"
            f"ic.kind = mms\nic.reference = {reference}\n"))
        assert main(["verify", cfg, "--suite", "budget"]) == 0
        out = capsys.readouterr().out
        assert "suite budget" in out and "ALL CHECKS PASSED" in out

    @pytest.mark.parametrize("reference", ["two_mode", "pulsing_mode"])
    def test_budget_suite_runs_for_time_dependent_mms(self, tmp_path, capsys, reference):
        # the closed bound is read at each record time
        self._budget_suite_passes(tmp_path, capsys, reference)

    @pytest.mark.parametrize("reference", ["steady_mode", "zero_field"])
    def test_budget_suite_runs_for_time_independent_mms(self, tmp_path, capsys,
                                                         reference):
        self._budget_suite_passes(tmp_path, capsys, reference)

    @pytest.mark.parametrize("steps, code", [(62, {2}), (64, {0, 1})])
    def test_compactness_suite_refuses_a_run_shorter_than_its_largest_lag(
            self, tmp_path, capsys, steps, code):
        # the largest lag is 32 records of 2 dt: 64 steps make its first pair
        cfg = _write(tmp_path, (
            f"nx = 16\nny = 17\ndt = 1e-3\nt_end = {steps}e-3\nnu = 0.01\n"
            "ic.kind = trig_clamped\nic.amplitude = 1.0\n"))
        assert main(["verify", cfg, "--suite", "compactness"]) in code
        captured = capsys.readouterr()
        if steps < 64:
            assert "t_end" in captured.err and "dt" in captured.err
        else:
            assert "sqrt-envelope dominates" in captured.out

    def test_compactness_suite_refuses_a_modulus_out_of_range(self, tmp_path, capsys):
        cfg = _write(tmp_path, ("nx = 8\nny = 9\nm = 1e150\nt_end = 0.064\n"
                                "ic.kind = mms\nic.reference = two_mode\n"))
        assert main(["verify", cfg, "--suite", "compactness"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the translation modulus is out of range")
        assert "ic.reference = two_mode" in captured.err and "m = 1e+150" in captured.err

    def test_compactness_suite_refuses_a_trajectory_that_never_moves(self, tmp_path, capsys):
        # M(k) = 0 at every lag has no log-log slope
        cfg = _write(tmp_path, ("nx = 8\nny = 17\ndt = 1e-3\nt_end = 0.064\n"
                                "ic.kind = zero\nforcing.kind = zero\n"))
        assert main(["verify", cfg, "--suite", "compactness"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the translation modulus is zero at every lag")

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "nx = 32\nny = 33\nseed = -1\n")
        assert main(["verify", cfg, "--suite", "poincare"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("suite, text, named", [
        ("poincare", "lx = 1e300\nm = 1e-300\n", "lx = 1e+300, m = 1e-300"),
        ("poincare", "lx = 1e150\nm = 1e150\n", "lx = 1e+150, m = 1e+150"),
        ("weights", "epsilon = 1e-300\n", "epsilon = 1e-300"),
        ("weights", "epsilon = 1e300\n", "epsilon = 1e+300")])
    def test_suite_beyond_the_float_range_is_a_config_error(self, tmp_path, capsys,
                                                             suite, text, named):
        # these ended in an OverflowError or a ZeroDivisionError, or warned
        # and then named no key
        cfg = _write(tmp_path, "nx = 16\nny = 17\n" + text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", cfg, "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    def test_weights_suite_beyond_the_float_range_in_gamma_is_a_config_error(
            self, tmp_path, capsys):
        # (rho + 1/2)^(2 gamma) overflows at rho = 100: numpy warned, and the
        # suite printed "measured nan >= 3" and exited 1
        cfg = _write(tmp_path, "nx = 16\nny = 17\ngamma = 100\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", cfg, "--suite", "weights", "--override-gamma"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "gamma = 100" in captured.err

    @pytest.mark.parametrize("lx, m", [(1e-20, 1e-10), (1e-150, 1e-150)])
    def test_poincare_suite_on_a_tiny_strip_ends(self, tmp_path, lx, m):
        # an absolute floor on |psi v| rejected every draw on these strips and
        # the suite drew forever; a subprocess, so that a hang fails the test
        cfg = _write(tmp_path, f"nx = 16\nny = 17\nlx = {lx!r}\nm = {m!r}\n")
        result = subprocess.run(
            [sys.executable, "-m", "bardina_strip", "verify", cfg, "--suite", "poincare"],
            capture_output=True, text=True, env=_package_env(), timeout=60)
        assert result.returncode in (0, 1, 2), result.stderr
        assert "Warning" not in result.stderr
        if result.returncode == 2:
            assert f"lx = {lx:g}, m = {m:g}" in result.stderr

    def test_unknown_suite_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "nx = 16\n")
        assert main(["verify", cfg, "--suite", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite 'nonsense'" in err and "'poincare'" in err


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

    def test_empty_alpha_list_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, DECAY_CONFIG.format(out=tmp_path / "o"))
        assert main(["compare-nse", cfg, "--alphas", ","]) == 2
        captured = capsys.readouterr()
        assert "--alphas" in captured.err and captured.out == ""

    def test_sweep_reports_slope(self, tmp_path, capsys):
        cfg = _write(tmp_path, DECAY_CONFIG.format(out=tmp_path / "o"))
        assert main(["compare-nse", cfg, "--alphas", "0.4,0.2"]) == 0
        out = capsys.readouterr().out
        assert "log-log slope" in out

    def test_runs_that_never_separate_print_no_slope(self, tmp_path, capsys):
        # at t_end = 0 every distance is 0, which has no logarithm
        cfg = _write(tmp_path, ("nx = 8\nny = 9\nt_end = 0\nic.kind = trig_clamped\n"
                                "ic.amplitude = 1.0\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["compare-nse", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("0.000000000e+00") == 4
        assert "slope" not in captured.out and captured.err == ""


# the checking commands of the small-check property, each with its arguments
_CHECKS = {"budget": ["verify", "--suite", "budget"],
           "compactness": ["verify", "--suite", "compactness"],
           "poincare": ["verify", "--suite", "poincare"],
           "weights": ["verify", "--suite", "weights"],
           "compare-nse": ["compare-nse"]}


def _small_check(**over):
    """A pinned example of the small-check property: 8x9 at the config's
    default scales, no fields."""
    return example(**{**dict(check="compare-nse", nx=8, ny=9, steps=0,
                             scheme="imex_euler", lx=6.283185307179586, m=1.0,
                             nu=0.01, dt=1e-3, alpha=0.5, epsilon=0.1, ic=("zero", 0.0),
                             forcing=("zero", 0.0)), **over})


class TestSmallChecks:

    @settings(max_examples=100, deadline=None)
    @given(check=st.sampled_from(sorted(_CHECKS)), nx=st.sampled_from([8, 16]),
           ny=st.sampled_from([9, 17]), steps=st.sampled_from([0, 1, 2, 3, 64]),
           scheme=st.sampled_from(["imex_euler", "imex_cnab2"]),
           lx=_SCALE, m=_SCALE, nu=_SCALE, dt=_SCALE, alpha=st.just(0.0) | _SCALE,
           epsilon=_SCALE, ic=_FIELD, forcing=_FIELD)
    # the runs never separate from alpha = 0: numpy warned on log(0)
    @_small_check(ic=("trig_clamped", 1.0))
    @_small_check(steps=4)
    # the distance to the alpha = 0 run overflows: numpy warned
    @_small_check(steps=1, forcing=("trig_clamped", 1e160))
    # the translation modulus overflows: its slope read nan and its envelope
    # check passed
    @_small_check(check="compactness", steps=64, m=1e150, ic=("mms", 1.0))
    # lambda1 overflowed: an OverflowError
    @_small_check(check="poincare", lx=1e300, m=1e-300)
    # |psi lap v| underflowed to 0: a ZeroDivisionError
    @_small_check(check="poincare", lx=1e150, m=1e150)
    # the lattice step's cube overflowed: an OverflowError
    @_small_check(check="weights", epsilon=1e-300)
    # numpy warned, then a reduction over no lattice point named no key
    @_small_check(check="weights", epsilon=1e300)
    # a constant that vanishes at rho = 1 divided the rho ratio by zero
    @_small_check(check="weights", epsilon=56.23413251903491)
    def test_any_small_check_exits_0_to_3_without_a_warning(
            self, check, nx, ny, steps, scheme, lx, m, nu, dt, alpha, epsilon, ic, forcing):
        # exit 1 is a suite that measured and failed; 3 a run that stepped
        # and blew up
        with tempfile.TemporaryDirectory() as tmp:
            text = (f"nx = {nx}\nny = {ny}\nlx = {lx!r}\nm = {m!r}\nnu = {nu!r}\n"
                    f"dt = {dt!r}\nt_end = {steps * dt!r}\nalpha = {alpha!r}\n"
                    f"epsilon = {epsilon!r}\nscheme = {scheme}\n"
                    f"output.dir = {Path(tmp) / 'o'}\n")
            for section, (kind, amplitude) in (("ic", ic), ("forcing", forcing)):
                text += (f"{section}.kind = {kind}\n{section}.amplitude = {amplitude!r}\n"
                         f"{section}.reference = two_mode\n")
            cfg = Path(tmp) / "check.cfg"
            cfg.write_text(text)
            command, *options = _CHECKS[check]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err, \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                warnings.simplefilter("ignore", CflWarning)
                code = main([command, str(cfg), *options])
            assert code in ((0, 1, 2) if steps == 0 else (0, 1, 2, 3)), err.getvalue()


class TestEntryPoint:

    def test_module_invocation(self):
        result = subprocess.run([sys.executable, "-m", "bardina_strip", "--help"],
                                capture_output=True, text=True, env=_package_env())
        assert result.returncode == 0
        assert "compare-nse" in result.stdout

    def test_small_run_loads_no_scipy(self, tmp_path):
        # no solve needs scipy: the package, a run on either side of
        # DENSE_INVERSE_BYTES and the mms suite, whose x2 refinement
        # reaches 32 x 129, load none of it; neither the package nor a run
        # loads the verification module
        src = Path(bardina_strip.__file__).resolve().parents[1]
        banded = DECAY_CONFIG.replace("ny = 33", "ny = 181").replace("t_end = 0.05",
                                                                     "t_end = 0.003")
        for name, text, extra in (("small", DECAY_CONFIG, []), ("banded", banded, []),
                                  ("mms", DECAY_CONFIG, ["--suite", "mms"])):
            cfg = _write(tmp_path, text.format(out=tmp_path / name), f"{name}.cfg")
            argv = ["verify" if extra else "run", cfg, *extra]
            code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                    "scipy = lambda: sorted(m for m in sys.modules "
                    "if m.split('.')[0] == 'scipy'); "
                    "verification = lambda: 'bardina_strip.verification' in sys.modules; "
                    "import bardina_strip; print(scipy(), verification()); "
                    f"from bardina_strip.cli import main; rc = main({argv!r}); "
                    "print(rc, scipy(), verification())")
            result = subprocess.run([sys.executable, "-c", code],
                                    capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines()[0] == "[] False", name
            # only verify loads the verification module
            assert result.stdout.splitlines()[-1] == f"0 [] {bool(extra)}", name

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
