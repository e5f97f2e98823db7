import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bardina_strip.diagnostics import CSV_COLUMNS, DiagnosticsRecord, DiagnosticsSeries
from bardina_strip.runio import (_KEYS, KNOWN_KEYS, SNAPSHOT_MAGIC, RunSettings,
                                 load_config, parse_config_text, read_snapshot,
                                 read_timeseries, write_snapshot, write_timeseries)
from bardina_strip.solver import FieldSpec, SolverConfig
from bardina_strip.strip_grid import Field, StripDomain, make_grid
from bardina_strip.verification import decay_config
from bardina_strip.weights import WeightSpec

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

_GRID = make_grid(StripDomain(2.0 * np.pi, 1.0), 16, 17)

_HUGE_INT = "1" + "0" * 400  # an int beyond the float range
_LONG_NAME = "1" + "0" * 300  # a path component longer than any file system takes
_EXTREME_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "-1", "1e308", "-1e308", "5e-324", "inf", "-inf",
                     "nan", "1e400", _HUGE_INT, "-" + _HUGE_INT]),
    st.integers().map(str), st.floats().map(repr))
_CONFIG_VALUES = st.one_of(
    _EXTREME_NUMBERS, st.text(max_size=5),
    st.sampled_from(["zero", "trig_clamped", "mms", "file", "two_mode", "imex_cnab2"]))
_CONFIG_TEXTS = st.one_of(
    st.text(),
    st.dictionaries(st.sampled_from(sorted(KNOWN_KEYS)), _CONFIG_VALUES, max_size=8)
    .map(lambda pairs: "\n".join(f"{k} = {v}" for k, v in pairs.items())))

_HEADER_BYTES = 48  # magic, version, nx, ny, time, alpha, nu

# a valid 4 x 5 snapshot; its time and values are 1.5, which one flipped
# exponent bit makes NaN
_VALID = (SNAPSHOT_MAGIC + np.array([1], "<u4").tobytes()
          + np.array([4, 5], "<u8").tobytes()
          + np.array([1.5, 0.5, 0.01], "<f8").tobytes()
          + np.full((4, 5), 1.5, dtype="<f8").tobytes())


def _flip(bit):
    raw = bytearray(_VALID)
    raw[bit // 8] ^= 1 << (bit % 8)
    return bytes(raw)


_DAMAGED_SNAPSHOTS = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=150).map(lambda b: _VALID[:8] + b),  # past magic and version
    st.integers(0, len(_VALID) - 1).map(lambda n: _VALID[:n]),
    st.integers(0, 8 * len(_VALID) - 1).map(_flip))

GOOD_CONFIG = """
# sample configuration
lx = 6.283185307179586
m = 1.0
nx = 16
ny = 17
alpha = 0.4           # filter scale
nu = 0.02
dt = 1e-3
t_end = 0.01
scheme = imex_cnab2
gamma = 0.5
epsilon = 0.2
rho = inf
ic.kind = trig_clamped
ic.amplitude = 1.5
ic.k1 = 2
ic.k2 = 1
forcing.kind = zero
output.dir = results/demo
output.every = 5
seed = 42
"""


class TestSnapshots:

    def test_round_trip_bit_identical(self, tmp_path, rng):
        f = Field(_GRID, rng.standard_normal(_GRID.shape))
        path = tmp_path / "state.bstr"
        write_snapshot(path, f, time=1.25, alpha=0.4, nu=0.01)
        data = read_snapshot(path)
        assert (data.nx, data.ny) == _GRID.shape
        assert data.time == 1.25 and data.alpha == 0.4 and data.nu == 0.01
        assert np.array_equal(data.values, f.values)
        # a view of the file's bytes, not a copy
        assert not data.values.flags.writeable and not data.values.flags.owndata

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_round_trip_random_payloads(self, tmp_path_factory, seed):
        gen = np.random.default_rng(seed)
        f = Field(_GRID, 1e8 * gen.standard_normal(_GRID.shape))
        path = tmp_path_factory.mktemp("snap") / "s.bstr"
        write_snapshot(path, f, time=0.0, alpha=0.0, nu=1.0)
        assert np.array_equal(read_snapshot(path).values, f.values)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bstr"
        f = Field(_GRID, np.zeros(_GRID.shape))
        write_snapshot(path, f, 0.0, 0.0, 1.0)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.bstr"
        f = Field(_GRID, np.zeros(_GRID.shape))
        write_snapshot(path, f, 0.0, 0.0, 1.0)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_snapshot(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.bstr"
        f = Field(_GRID, np.zeros(_GRID.shape))
        write_snapshot(path, f, 0.0, 0.0, 1.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(path)

    @settings(max_examples=200, deadline=500)
    @given(raw=_DAMAGED_SNAPSHOTS)
    def test_damaged_bytes_raise_value_error_or_read_what_they_hold(
            self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "damaged.bstr"
        path.write_bytes(raw)
        try:
            data = read_snapshot(path)
        except ValueError:
            return
        assert not (len(raw) < len(_VALID) and _VALID.startswith(raw))  # not truncated
        assert data.nx >= 1 and data.ny >= 1
        assert all(np.isfinite([data.time, data.alpha, data.nu]))
        assert np.all(np.isfinite(data.values))
        assert data.values.tobytes() == raw[_HEADER_BYTES:]

    @pytest.mark.parametrize("raw, match", [
        (_flip(8 * _HEADER_BYTES + 62), "non-finite values"),  # the first value
        (_flip(8 * 24 + 62), "non-finite time"),               # the header time
        (_VALID[:8] + bytes(40), "empty grid")])               # 0 x 0, no payload
    def test_rejects_what_no_writer_writes(self, tmp_path, raw, match):
        path = tmp_path / "bad.bstr"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=match):
            read_snapshot(path)


# a valid three-row time series, as write_timeseries writes it
_VALID_CSV = ",".join(CSV_COLUMNS) + "\n" + "".join(
    ",".join(f"{x:.17g}" for x in (t, *np.linspace(-1.0, 1.0, 11) * (t + 1))) + "\n"
    for t in (0.0, 0.1, 0.2))
_CSV_CHARS = st.sampled_from(list(",\n\r.-+e0179 ") + ["nan", "inf", "x", ""])


def _csv_replace(pos, chars):
    return _VALID_CSV[:pos] + chars + _VALID_CSV[pos + 1:]


_DAMAGED_CSVS = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200),
    st.integers(0, len(_VALID_CSV)).map(lambda n: _VALID_CSV[:n]),
    st.builds(_csv_replace, st.integers(0, len(_VALID_CSV) - 1), _CSV_CHARS),
    st.builds(lambda pos, text: _VALID_CSV[:pos] + text + _VALID_CSV[pos:],
              st.integers(0, len(_VALID_CSV)), _CSV_CHARS))


class TestTimeSeries:

    @staticmethod
    def _series(n=4):
        series = DiagnosticsSeries()
        gen = np.random.default_rng(1)
        for i in range(n):
            vals = gen.standard_normal(15)
            series.append(DiagnosticsRecord(
                t=float(i) * 0.1, energy=abs(vals[0]), dissipation=abs(vals[1]),
                energy_w=abs(vals[2]), dissipation_w=abs(vals[3]),
                norm_l2=abs(vals[4]), norm_h1h=abs(vals[5]),
                norm_h2h_gamma=abs(vals[6]), norm_h3h_gamma=abs(vals[7]),
                budget_residual=vals[8], weighted_budget_residual=vals[9],
                cfl=abs(vals[10])))
        return series

    def test_round_trip_preserves_float64(self, tmp_path):
        series = self._series()
        path = tmp_path / "ts.csv"
        write_timeseries(path, series)
        cols = read_timeseries(path)
        assert np.array_equal(cols["E"], series.column("energy"))
        assert np.array_equal(cols["budget_residual"],
                              series.column("budget_residual"))

    def test_header_is_fixed(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_timeseries(path, self._series())
        header = path.read_text().splitlines()[0]
        assert header == ("t,E,D,E_w,D_w,norm_l2,norm_h1h,norm_h2h_gamma,"
                          "norm_h3h_gamma,budget_residual,"
                          "weighted_budget_residual,cfl")

    def test_rejects_foreign_columns(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("t,bogus\n0,1\n")
        with pytest.raises(ValueError, match="columns"):
            read_timeseries(path)

    @pytest.mark.parametrize("text, match", [
        ("", "line 1: unexpected columns"),
        (",".join(CSV_COLUMNS) + "\n0,1\n0.1,2\n", "line 2: 2 fields, expected 12"),
        (_VALID_CSV + ",".join(["0.3"] * 13) + "\n", "line 5: 13 fields, expected 12"),
        (_VALID_CSV.replace("\n0.10000000000000001,", "\nnan,"),
         "line 3: non-finite value")],
        ids=["empty", "short_rows", "long_row", "nan_time"])
    def test_damaged_file_names_the_line(self, tmp_path, text, match):
        path = tmp_path / "ts.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_timeseries(path)

    @settings(max_examples=200, deadline=500)
    @given(text=_DAMAGED_CSVS)
    def test_damaged_text_raises_value_error_or_reads_what_it_holds(
            self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "damaged.csv"
        path.write_text(text, encoding="utf-8")
        try:
            cols = read_timeseries(path)
        except ValueError:
            return
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert list(cols) == list(CSV_COLUMNS)
        for i, name in enumerate(CSV_COLUMNS):
            assert np.array_equal(cols[name], rows.reshape(-1, 12)[:, i])
            assert np.all(np.isfinite(cols[name]))
        assert np.all(np.diff(cols["t"]) > 0)


class TestConfigParsing:

    def test_full_round_trip(self):
        settings_ = parse_config_text(GOOD_CONFIG)
        cfg = settings_.solver
        assert cfg.nx == 16 and cfg.ny == 17
        assert cfg.scheme == "imex_cnab2"
        assert cfg.ic.kind == "trig_clamped" and cfg.ic.k2 == 1
        assert cfg.forcing.kind == "zero"
        assert cfg.weight.gamma == 0.5
        assert math.isinf(cfg.weight.rho)
        assert cfg.record_every == 5
        assert settings_.output_dir == "results/demo"
        assert settings_.seed == 42

    def test_defaults_apply(self):
        settings_ = parse_config_text("nx = 16\nny = 17\n")
        assert settings_.solver.nu > 0
        assert settings_.solver.weight.rho == 10.0
        assert settings_.output_dir == "out"

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValueError, match="unknown key 'viscosity'"):
            parse_config_text("viscosity = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_text("nx = 16\nnx = 32\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("just some words\n")

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ValueError, match="line 1: key 'nx': invalid literal"):
            parse_config_text("nx = abc")
        with pytest.raises(ValueError, match="line 3: key 'rho'"):
            parse_config_text("nx = 16\n# comment\nrho = large\n")

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="nu"):
            parse_config_text("nu = 0\n")

    def test_gamma_above_threshold_needs_flag(self):
        with pytest.raises(ValueError, match="override"):
            parse_config_text("gamma = 1.0\n")
        settings_ = parse_config_text("gamma = 1.0\n", allow_gamma_override=True)
        assert settings_.solver.weight.gamma == 1.0

    @settings(max_examples=300, deadline=200)
    @given(text=_CONFIG_TEXTS, override=st.booleans())
    @example(text=f"nx = {_HUGE_INT}", override=False)
    @example(text=f"output.dir = {_LONG_NAME}", override=False)
    def test_any_text_parses_or_raises_value_error(self, text, override):
        try:
            settings_ = parse_config_text(text, allow_gamma_override=override)
        except ValueError:
            return
        assert isinstance(settings_, RunSettings)

    @settings(max_examples=200, deadline=None)
    @given(name=st.one_of(
        st.text(st.characters(exclude_characters="/\x00"), min_size=1, max_size=400),
        st.just("ok.cfg/x")))
    @example(name="a" * 301)  # ENAMETOOLONG
    @example(name="ok.cfg/x")  # ENOTDIR
    def test_any_config_path_loads_or_raises_value_error(self, tmp_path_factory, name):
        # a name inside one directory, never an absolute path: a device such
        # as /dev/zero would be read without end
        root = tmp_path_factory.getbasetemp() / "names"
        root.mkdir(exist_ok=True)
        (root / "ok.cfg").write_text("nx = 16\n")
        try:
            settings_ = load_config(root / name)
        except ValueError:
            return
        assert isinstance(settings_, RunSettings)

    def test_huge_grid_size_is_a_config_error(self):
        with pytest.raises(ValueError, match="nx is too large"):
            parse_config_text(f"nx = {_HUGE_INT}\n")

    def test_comments_and_blanks_ignored(self):
        settings_ = parse_config_text("\n# comment only\n  \nnx = 16 # trailing\n")
        assert settings_.solver.nx == 16

    def test_key_set_is_the_documented_one(self):
        assert KNOWN_KEYS == {
            "lx", "m", "nx", "ny", "alpha", "nu", "dt", "t_end", "scheme",
            "epsilon", "rho", "gamma", "seed", "output.dir", "output.every",
            "forcing.kind", "forcing.amplitude", "forcing.k1", "forcing.k2",
            "forcing.reference", "forcing.path", "ic.kind", "ic.amplitude",
            "ic.k1", "ic.k2", "ic.reference", "ic.path"}

    def test_keys_are_the_only_settings(self):
        # every leaf field of the config objects is set by exactly one key
        leaves = {("solver", f.name) for f in fields(SolverConfig)
                  if f.name not in ("forcing", "ic", "weight")}
        leaves |= {(section, f.name) for section in ("forcing", "ic")
                   for f in fields(FieldSpec)}
        leaves |= {("weight", f.name) for f in fields(WeightSpec)}
        leaves |= {("settings", f.name) for f in fields(RunSettings) if f.name != "solver"}
        pairs = [(section, attr) for section, attr, _kind in _KEYS.values()]
        assert set(pairs) == leaves and len(pairs) == len(leaves)

    def test_defaults_are_the_dataclass_defaults(self):
        assert parse_config_text("") == RunSettings(SolverConfig())

    @pytest.mark.parametrize("raw", ["inf", "Inf", "Infinity"])
    def test_rho_reads_every_spelling_of_infinity(self, raw):
        assert math.isinf(parse_config_text(f"rho = {raw}\n").solver.weight.rho)

    def test_negative_seed_names_the_key(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            parse_config_text("seed = -1\n")

    @pytest.mark.parametrize("sub", ["", "/sub"])
    def test_output_dir_on_a_file_names_the_key(self, tmp_path, sub):
        path = tmp_path / "taken"
        path.write_text("")
        with pytest.raises(ValueError, match="output.dir .* lies under a file"):
            parse_config_text(f"output.dir = {path}{sub}\n")


class TestShippedConfigs:

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_config_parses(self, path):
        assert isinstance(load_config(path), RunSettings)

    def test_baseline_is_the_acceptance_decay(self):
        assert load_config(CONFIGS[0].parent / "baseline.cfg").solver == decay_config()
