"""The benchmark's workloads: their inputs, drawn from a seed, and their checks.

Every input the package sees is a generated config file, and for the
in-process workloads a snapshot file holding the initial condition.  The
seed only moves values inside narrow bands (an initial-condition
perturbation, or ``nu`` and ``alpha``), so the amount of work never depends
on it, and every check below holds for any seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

LX = 2.0 * math.pi
M = 1.0
# Lags of the acceptance fixture's streaming modulus, in record units.
MODULUS_LAGS = (1, 2, 4, 8, 16, 32)
# Repetitions per untraced run, however short ``--seconds`` is.
MIN_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool
    nx: int
    ny: int
    scheme: str
    steps: int
    dt: float
    record_every: int
    why: str
    modulus: bool = False


WORKLOADS = {
    "decay_observed": Workload(
        name="decay_observed", cli=False, nx=128, ny=129, scheme="imex_euler",
        steps=200, dt=1e-3, record_every=1, modulus=True,
        why=("in-process acceptance decay: a record every step and a weighted "
             "h2h modulus add every other step, so diagnostics do most of the "
             "per-step work")),
    "fine_forced": Workload(
        name="fine_forced", cli=False, nx=512, ny=513, scheme="imex_cnab2",
        steps=40, dt=5e-4, record_every=300,
        why=("in-process forced run at 512x513: dense assembly and two SuperLU "
             "factorizations are most of the run, then transforms and the "
             "implicit solve, with almost no diagnostics")),
    "cli_mms": Workload(
        name="cli_mms", cli=True, nx=64, ny=65, scheme="imex_cnab2",
        steps=150, dt=1e-3, record_every=1,
        why=("CLI run of the two_mode manufactured solution: the only path "
             "through the mms layer (symbolic derivation and a forcing "
             "evaluation per step)")),
    "cli_decay": Workload(
        name="cli_decay", cli=True, nx=64, ny=65, scheme="imex_euler",
        steps=500, dt=1e-3, record_every=10,
        why=("CLI run of configs/decay.cfg: import is most of the run and "
             "the config never needs sympy, so start-up cost shows here")),
}

# Grids and step counts small enough for the benchmark's own test.
TINY = {
    "decay_observed": dict(nx=32, ny=33, steps=20),
    "fine_forced": dict(nx=64, ny=65, steps=10),
    "cli_mms": dict(nx=32, ny=33, steps=20),
    "cli_decay": dict(steps=20),
}

DECAY_CFG = Path("configs") / "decay.cfg"


def get_workload(name: str, tiny: bool = False) -> Workload:
    wl = WORKLOADS[name]
    return replace(wl, **TINY[name]) if tiny else wl


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _config_text(pairs: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def clamped_perturbation(nx: int, ny: int, rng: np.random.Generator,
                         amplitude: float) -> np.ndarray:
    """Random low-mode field under the ``(1 - z^2)^2`` wall envelope."""
    x1 = (LX / nx) * np.arange(nx)[:, None]
    z = np.linspace(-1.0, 1.0, ny)[None, :]
    vals = np.zeros((nx, ny))
    for k in range(1, 4):
        a, b, c = rng.uniform(-1.0, 1.0, 3)
        phase = 2.0 * np.pi * k * x1 / LX
        vals += (a * np.sin(phase) + b * np.cos(phase)) * (1.0 + c * z)
    return amplitude * vals * (1.0 - z ** 2) ** 2


def _write_ic(wl: Workload, seed: int, path: Path, amplitude: float,
              perturbation: float):
    """Unit-mode ``trig_clamped`` field plus a seeded clamped perturbation."""
    from bardina_strip.runio import write_snapshot
    from bardina_strip.solver import InitialConditionSpec, build_field
    from bardina_strip.strip_grid import Field, StripDomain, make_grid

    grid = make_grid(StripDomain(LX, M), wl.nx, wl.ny)
    base = build_field(InitialConditionSpec(kind="trig_clamped",
                                            amplitude=amplitude, k1=1, k2=0), grid)
    rng = np.random.default_rng(seed)
    values = base.values + clamped_perturbation(wl.nx, wl.ny, rng, perturbation)
    write_snapshot(path, Field(grid, values, clamped=True), 0.0, 0.5, 0.01)


def generate(wl: Workload, seed: int, work: Path, root: Path) -> dict:
    """Write the workload's inputs under ``work``; returns their paths.

    In-process workloads get ``cfg``; CLI workloads get ``cfg`` (the full
    run) and ``cfg_setup`` (the same run with ``t_end = 0``, which pays
    import and set-up but takes no step), each with its own output dir.
    """
    work.mkdir(parents=True, exist_ok=True)
    t_end = repr(wl.steps * wl.dt)
    if wl.name == "cli_decay":
        rng = np.random.default_rng(seed)
        overrides = {"nu": repr(0.01 * rng.uniform(0.98, 1.02)),
                     "alpha": repr(0.5 * rng.uniform(0.98, 1.02)),
                     "t_end": t_end}
        lines = []
        for line in (root / DECAY_CFG).read_text(encoding="utf-8").splitlines():
            key = line.split("#", 1)[0].split("=", 1)[0].strip()
            if key in overrides:
                line = f"{key} = {overrides[key]}"
            elif key == "output.dir":
                continue
            lines.append(line)
        base = "\n".join(lines) + "\n"
        return _cli_inputs(base, work)
    pairs = {"lx": repr(LX), "m": repr(M), "nx": wl.nx, "ny": wl.ny,
             "dt": repr(wl.dt), "t_end": t_end, "scheme": wl.scheme,
             "output.every": wl.record_every}
    if wl.name == "cli_mms":
        rng = np.random.default_rng(seed)
        pairs.update({"nu": repr(rng.uniform(0.045, 0.055)),
                      "alpha": repr(rng.uniform(0.36, 0.44)),
                      "forcing.kind": "mms", "forcing.reference": "two_mode",
                      "ic.kind": "mms", "ic.reference": "two_mode"})
        return _cli_inputs(_config_text(pairs), work)
    ic = work / "ic.bstr"
    pairs.update({"nu": "0.01", "alpha": "0.5", "ic.kind": "file",
                  "ic.path": str(ic.resolve())})
    if wl.name == "decay_observed":
        _write_ic(wl, seed, ic, amplitude=1.0, perturbation=0.05)
    else:
        _write_ic(wl, seed, ic, amplitude=0.25, perturbation=0.02)
        pairs.update({"forcing.kind": "trig_clamped", "forcing.amplitude": "1.0",
                      "forcing.k1": 2, "forcing.k2": 1})
    cfg = work / "run.cfg"
    cfg.write_text(_config_text(pairs), encoding="utf-8")
    return {"cfg": cfg}


def _cli_inputs(base: str, work: Path) -> dict:
    out = {}
    for key, extra in (("cfg", ""), ("cfg_setup", "t_end = 0\n")):
        out_dir = (work / f"out_{key}").resolve()
        text = base
        if extra:
            text = "".join(line + "\n" for line in base.splitlines()
                           if line.split("=", 1)[0].strip() != "t_end") + extra
        path = work / f"{key}.cfg"
        path.write_text(text + f"output.dir = {out_dir}\n", encoding="utf-8")
        out[key] = path
        out[key + "_out"] = out_dir
    return out


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of failure messages; empty means correct.
# ---------------------------------------------------------------------------

def check_energy_decay(energy: np.ndarray) -> list[str]:
    """Acceptance criterion 4: energy non-increasing to ``1e-8 E0``."""
    if not np.all(np.isfinite(energy)):
        return ["energy is not finite"]
    rise = float(np.max(np.diff(energy), initial=0.0))
    if rise > 1e-8 * energy[0]:
        return [f"energy rose by {rise:.3e} > 1e-8 E0 = {1e-8 * energy[0]:.3e}"]
    return []


def check_inprocess(wl: Workload, state, series, modulus) -> list[str]:
    from bardina_strip.diagnostics import energy_budget

    failures = []
    if not np.all(np.isfinite(state.v.values)):
        failures.append("final state is not finite")
    if abs(state.t - wl.steps * wl.dt) > 1e-9:
        failures.append(f"final time {state.t} != {wl.steps * wl.dt}")
    if wl.name == "decay_observed":
        failures += check_energy_decay(series.column("energy"))
        # A lag reaches a pair of records once the run spans it.
        spanned = [2 * lag < wl.steps for lag in MODULUS_LAGS]
        if not (np.all(np.isfinite(modulus.modulus))
                and np.all((modulus.modulus > 0) == spanned)):
            failures.append("translation modulus is not finite and positive on the run's span")
    else:
        budget = energy_budget(series)
        if not math.isfinite(budget.max_excess) or budget.max_excess > 1e-9 * budget.bound:
            failures.append(f"closed-bound excess {budget.max_excess:.3e} is not ~0")
    return failures


def two_mode_solution(nx: int, ny: int, t: float) -> np.ndarray:
    """Closed form of the ``two_mode`` manufactured solution on the grid."""
    x1 = (LX / nx) * np.arange(nx)[:, None]
    z = np.linspace(-M, M, ny)[None, :] / M
    env = (1.0 - z ** 2) ** 2
    k = 2.0 * np.pi / LX
    return ((1.0 + 0.5 * np.cos(1.3 * t)) * np.sin(k * x1) * env
            + 0.4 * np.sin(0.7 * t + 0.3) * np.cos(k * x1) * z * env)


MMS_REL_TOL = 1e-2


def check_cli_outputs(wl: Workload, out_dir: Path, steps: int) -> list[str]:
    """Re-read the CLI's outputs and check them against the workload."""
    from bardina_strip.runio import read_snapshot, read_timeseries

    try:
        cols = read_timeseries(out_dir / "timeseries.csv")
        snap = read_snapshot(out_dir / "final.bstr")
    except (OSError, ValueError) as exc:
        return [f"outputs do not re-read: {exc}"]
    failures = []
    t_final = steps * wl.dt
    n_records = steps // wl.record_every + 1 + (steps % wl.record_every != 0)
    if len(cols["t"]) != n_records:
        failures.append(f"{len(cols['t'])} records, expected {n_records}")
    if (snap.nx, snap.ny) != (wl.nx, wl.ny) or abs(snap.time - t_final) > 1e-9:
        failures.append(f"snapshot header ({snap.nx}, {snap.ny}, t={snap.time}) is wrong")
    if not np.all(np.isfinite(snap.values)):
        failures.append("final state is not finite")
        return failures
    if wl.name == "cli_decay":
        failures += check_energy_decay(cols["E"])
    elif steps > 0:
        exact = two_mode_solution(wl.nx, wl.ny, snap.time)
        rel = float(np.linalg.norm(snap.values - exact) / np.linalg.norm(exact))
        if not rel <= MMS_REL_TOL:
            failures.append(f"error against the closed form {rel:.3e} > {MMS_REL_TOL}")
    return failures


def output_bytes(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes()
            for name in ("timeseries.csv", "final.bstr")
            if (out_dir / name).exists()}


def check_cli_run(wl: Workload, out_dir: Path, steps: int,
                  reference: dict[str, bytes]) -> list[str]:
    """``check_cli_outputs`` plus byte equality with a same-seed run's outputs."""
    failures = check_cli_outputs(wl, out_dir, steps)
    if output_bytes(out_dir) != reference:
        failures.append("outputs differ from the first same-seed run")
    return failures
