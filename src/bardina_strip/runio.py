"""Run-configuration files and bit-exact persistence.

Three on-disk formats:

* ``RunConfig``: UTF-8 text, one ``key = value`` pair per line, ``#``
  comments; unknown keys are a hard error.
* Snapshot: binary, little-endian; header ``BSTR`` magic, ``u32`` format
  version, ``u64`` nx, ``u64`` ny, ``f64`` time, ``f64`` alpha, ``f64`` nu;
  payload of ``nx * ny`` float64 values, row-major with ``x1`` outermost.
  A snapshot with an empty grid or a non-finite number is refused.
* Time series: comma-separated text with a fixed 12-column header, numbers
  printed with 17 significant digits so a rerun is byte-comparable.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import CSV_COLUMNS, DiagnosticsSeries
from .solver import FieldSpec, SolverConfig
from .strip_grid import Field
from .weights import WeightSpec

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotData",
    "write_snapshot",
    "read_snapshot",
    "write_timeseries",
    "read_timeseries",
    "RunSettings",
    "parse_config_text",
    "load_config",
]

SNAPSHOT_MAGIC = b"BSTR"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIQQddd")


@dataclass
class SnapshotData:
    nx: int
    ny: int
    time: float
    alpha: float
    nu: float
    values: np.ndarray


def write_snapshot(path, field: Field, time: float, alpha: float, nu: float):
    grid = field.grid
    payload = np.ascontiguousarray(field.values, dtype="<f8")
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.nx, grid.ny,
                          time, alpha, nu)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_snapshot(path) -> SnapshotData:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"snapshot {path} is truncated")
    magic, version, nx, ny, time, alpha, nu = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"snapshot {path} has wrong magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"snapshot {path} has unsupported version {version}")
    if nx < 1 or ny < 1:
        raise ValueError(f"snapshot {path} has an empty grid {nx} x {ny}")
    if not all(map(math.isfinite, (time, alpha, nu))):
        raise ValueError(f"snapshot {path} has a non-finite time, alpha or nu")
    expected = nx * ny * 8
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise ValueError(
            f"snapshot {path} payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(nx, ny).copy()
    if not np.all(np.isfinite(values)):
        raise ValueError(f"snapshot {path} holds non-finite values")
    return SnapshotData(nx=nx, ny=ny, time=time, alpha=alpha, nu=nu, values=values)


def write_timeseries(path, series: DiagnosticsSeries):
    lines = [",".join(CSV_COLUMNS)]
    for rec in series.records:
        lines.append(",".join(f"{x:.17g}" for x in rec.csv_values()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_timeseries(path) -> dict[str, np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected time-series columns {header}")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if data.size == 0:
        data = data.reshape(0, len(header))
    if np.any(np.diff(data[:, 0]) <= 0) and data.shape[0] > 1:
        raise ValueError("time column is not strictly increasing")
    return {name: data[:, i] for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

@dataclass
class RunSettings:
    solver: SolverConfig
    output_dir: str = "out"
    seed: int = 0


_FLOAT_KEYS = {"lx", "m", "alpha", "nu", "dt", "t_end", "gamma", "epsilon",
               "forcing.amplitude", "ic.amplitude"}
_INT_KEYS = {"nx", "ny", "output.every", "seed", "forcing.k1", "forcing.k2",
             "ic.k1", "ic.k2"}
_STR_KEYS = {"scheme", "forcing.kind", "forcing.reference", "forcing.path",
             "ic.kind", "ic.reference", "ic.path", "output.dir"}
_SPECIAL_KEYS = {"rho"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _SPECIAL_KEYS


def _parse_value(key: str, raw: str):
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _INT_KEYS:
        return int(raw)
    if key == "rho":
        return math.inf if raw.lower() in ("inf", "infinity") else float(raw)
    return raw


def parse_config_text(text: str, allow_gamma_override: bool = False) -> RunSettings:
    """Parse ``key = value`` lines into run settings; typos are hard errors."""
    pairs: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            pairs[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: key {key!r}: {exc}") from None

    def take(prefix: str) -> FieldSpec:
        kw = {}
        for name in ("kind", "amplitude", "k1", "k2", "reference", "path"):
            if f"{prefix}.{name}" in pairs:
                kw[name] = pairs.pop(f"{prefix}.{name}")
        try:
            spec = FieldSpec(**kw)
        except ValueError as exc:  # its message starts with the attribute
            raise ValueError(f"{prefix}.{exc}") from None
        if spec.kind == "file" and not Path(spec.path).is_file():
            what = "is a directory" if Path(spec.path).is_dir() else "does not exist"
            raise ValueError(f"{prefix}.path {spec.path!r} {what}; expected a snapshot file")
        return spec

    forcing = take("forcing")
    ic = take("ic")
    output_dir = pairs.pop("output.dir", "out")
    seed = pairs.pop("seed", 0)
    solver_kw = {}
    for name in ("lx", "m", "nx", "ny", "alpha", "nu", "dt", "t_end", "scheme"):
        if name in pairs:
            solver_kw[name] = pairs.pop(name)
    if "output.every" in pairs:
        solver_kw["record_every"] = pairs.pop("output.every")
    try:
        weight = WeightSpec(epsilon=pairs.pop("epsilon", 0.1), rho=pairs.pop("rho", 10.0),
                            gamma=pairs.pop("gamma", 2.0 / 3.0),
                            allow_gamma_override=allow_gamma_override)
        solver = SolverConfig(forcing=forcing, ic=ic, weight=weight, **solver_kw)
    except ValueError as exc:  # name the config key and the --override-gamma flag
        raise ValueError(str(exc).replace("record_every", "output.every").replace(
            "set allow_gamma_override=True", "pass --override-gamma")) from None
    if pairs:
        raise ValueError(f"unconsumed keys {sorted(pairs)}")
    return RunSettings(solver=solver, output_dir=str(output_dir), seed=int(seed))


def load_config(path, allow_gamma_override: bool = False) -> RunSettings:
    text = Path(path).read_text(encoding="utf-8")
    return parse_config_text(text, allow_gamma_override=allow_gamma_override)
