"""Run-configuration files and bit-exact persistence.

Three on-disk formats:

* Config: UTF-8 text, one ``key = value`` pair per line, ``#`` comments;
  unknown keys are a hard error, and a key left out keeps its dataclass
  default.
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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .diagnostics import CSV_COLUMNS, DiagnosticsSeries
from .solver import FieldSpec, SolverConfig
from .strip_grid import Field
from .weights import GAMMA_THRESHOLD

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
    """The snapshot at ``path``; ``values`` is a read-only view of the
    file's bytes, not a copy."""
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
    size, expected = len(raw) - _HEADER.size, nx * ny * 8
    if size != expected:
        raise ValueError(f"snapshot {path} payload is {size} bytes, expected {expected}")
    values = np.frombuffer(raw, "<f8", count=nx * ny, offset=_HEADER.size).reshape(nx, ny)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"snapshot {path} holds non-finite values")
    return SnapshotData(nx=nx, ny=ny, time=time, alpha=alpha, nu=nu, values=values)


def write_timeseries(path, series: DiagnosticsSeries):
    lines = [",".join(CSV_COLUMNS)]
    for rec in series.records:
        lines.append(",".join(f"{x:.17g}" for x in rec.csv_values()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_timeseries(path) -> dict[str, np.ndarray]:
    """Columns of a time series as :func:`write_timeseries` writes it; a
    foreign header, a row that is not 12 finite numbers or a time that does
    not increase is a ``ValueError`` that names the line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"time series {path} line 1: unexpected columns {header}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = [float(x) for x in line.split(",")]
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{len(row)} fields, expected {len(CSV_COLUMNS)}")
            if not all(map(math.isfinite, row)):
                raise ValueError("non-finite value")
            if rows and row[0] <= rows[-1][0]:
                raise ValueError("time column is not strictly increasing")
        except ValueError as exc:
            raise ValueError(f"time series {path} line {lineno}: {exc}") from None
        rows.append(row)
    data = np.array(rows).reshape(len(rows), len(CSV_COLUMNS))
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

@dataclass
class RunSettings:
    solver: SolverConfig
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


_SPEC_FIELDS = (("kind", str), ("amplitude", float), ("k1", int), ("k2", int),
                ("reference", str), ("path", str))
# config key -> (section, attribute, type); a key that a config leaves out
# keeps the default of its section's dataclass
_KEYS = {
    "lx": ("solver", "lx", float), "m": ("solver", "m", float),
    "nx": ("solver", "nx", int), "ny": ("solver", "ny", int),
    "alpha": ("solver", "alpha", float), "nu": ("solver", "nu", float),
    "dt": ("solver", "dt", float), "t_end": ("solver", "t_end", float),
    "scheme": ("solver", "scheme", str),
    "output.every": ("solver", "record_every", int),
    "epsilon": ("weight", "epsilon", float), "rho": ("weight", "rho", float),
    "gamma": ("weight", "gamma", float),
    **{f"{section}.{name}": (section, name, kind)
       for section in ("forcing", "ic") for name, kind in _SPEC_FIELDS},
    "output.dir": ("settings", "output_dir", str),
    "seed": ("settings", "seed", int),
}
KNOWN_KEYS = set(_KEYS)


def _field_spec(prefix: str, kw: dict) -> FieldSpec:
    try:
        spec = FieldSpec(**kw)
    except ValueError as exc:  # its message starts with the attribute
        raise ValueError(f"{prefix}.{exc}") from None
    if spec.kind == "file":
        path = Path(spec.path)
        try:
            what = ("" if path.is_file() else
                    "is a directory" if path.is_dir() else "does not exist")
        except OSError as exc:  # a name the OS refuses, say one too long
            what = f"is refused: {exc.strerror}"
        if what:
            raise ValueError(f"{prefix}.path {spec.path!r} {what}; expected a snapshot file")
    return spec


def parse_config_text(text: str, allow_gamma_override: bool = False) -> RunSettings:
    """Parse ``key = value`` lines into run settings; typos, a path the OS refuses
    and ``gamma > GAMMA_THRESHOLD`` without ``allow_gamma_override`` are errors."""
    sections = {"solver": {}, "weight": {}, "forcing": {}, "ic": {}, "settings": {}}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        section, attr, kind = _KEYS[key]
        if attr in sections[section]:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            sections[section][attr] = kind(raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: key {key!r}: {exc}") from None

    forcing = _field_spec("forcing", sections["forcing"])
    ic = _field_spec("ic", sections["ic"])
    try:
        weight = replace(SolverConfig.weight, **sections["weight"])
        if weight.gamma > GAMMA_THRESHOLD + 1e-12 and not allow_gamma_override:
            raise ValueError(f"gamma = {weight.gamma} exceeds the 2/3 threshold; "
                             "pass --override-gamma for sharpness experiments")
        solver = SolverConfig(forcing=forcing, ic=ic, weight=weight, **sections["solver"])
    except ValueError as exc:  # name the config key
        raise ValueError(str(exc).replace("record_every", "output.every")) from None
    settings = RunSettings(solver=solver, **sections["settings"])
    out_dir = Path(settings.output_dir)  # its first existing ancestor is checked
    try:
        under_file = not next(p for p in (out_dir, *out_dir.parents) if p.exists()).is_dir()
    except OSError as exc:  # a name the OS refuses, say one too long
        raise ValueError(f"output.dir {settings.output_dir!r} is refused: "
                         f"{exc.strerror}") from None
    if under_file:
        raise ValueError(f"output.dir {settings.output_dir!r} is or lies under a file")
    return settings


def load_config(path, allow_gamma_override: bool = False) -> RunSettings:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:  # missing, a directory or a name the OS refuses
        raise ValueError(f"config {str(path)!r} cannot be read: {exc.strerror}") from None
    return parse_config_text(text, allow_gamma_override=allow_gamma_override)
