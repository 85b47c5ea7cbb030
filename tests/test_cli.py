"""Command-line interface: outputs, exit codes, config layering, reports."""
import argparse
import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riaho import aniso, bridge, classdyn, cli, fockeng, landau
from riaho.coupling import Coupling
from riaho.phasealg.verify import suite_algebra
from riaho.cli import ConfigError, RunConfig, main, parse_complex, parse_rational, parse_real
from riaho.reports import CheckRow, VerificationReport

SCHEMA = json.loads(
    (cli.Path(cli.__file__).parent / "schemas" / "verification_report.schema.json").read_text()
)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_meta(tmp_path, stem):
    return json.loads((tmp_path / f"{stem}.meta.json").read_text())


def run(tmp_path, *argv):
    return main(list(argv) + ["--outdir", str(tmp_path)])


class TestParsers:
    def test_rational_forms(self):
        assert parse_rational("2/3") == F(2, 3)
        assert parse_rational("3") == F(3)
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("-1/2") == F(-1, 2)

    def test_rational_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_rational("abc")
        with pytest.raises(ConfigError):
            parse_rational("1/0")

    @pytest.mark.parametrize("parse,text", [
        (parse_rational, "1e400"), (parse_rational, "-1e-400"),
        (parse_real, "1" + "0" * 400), (parse_real, "1/" + "1" * 400),
    ], ids=["1e400", "-1e-400", "10^400", "1/1..1"])
    def test_exact_values_outside_float_range_rejected(self, parse, text):
        # exact, but the numeric paths would overflow or divide by 0.0
        with pytest.raises(ConfigError, match="float range"):
            parse(text)

    def test_complex_pairs(self):
        assert parse_complex("1,-2") == complex(1, -2)
        assert parse_complex("0.5,0") == complex(0.5, 0)

    @pytest.mark.parametrize("text", ["1", "1,2,3", "a,b", "nan,0", "0,inf"])
    def test_complex_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_complex(text)

    def test_real_keeps_exactness_for_explicit_rationals(self):
        assert parse_real("3/4") == F(3, 4)
        assert isinstance(parse_real("3/4"), F)
        assert isinstance(parse_real("-7"), F)
        # decimals stand in for inexact values and stay floats
        assert isinstance(parse_real("0.5"), float)
        assert isinstance(parse_real("1e-3"), float)

    def test_real_rejects_non_numbers(self):
        with pytest.raises(ConfigError):
            parse_real("nan")
        with pytest.raises(ConfigError):
            parse_real("spam")


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.truncation == 12
        assert config.format == "csv"

    def test_holds_no_tolerance(self):
        # each check tolerance is fixed where its row is built, none is a run setting
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "m", "omega", "hbar", "truncation", "outdir", "format"]

    @pytest.mark.parametrize("kwargs", [
        {"truncation": 3},
        {"hbar": -1.0},
        {"m": 0.0},
        {"format": "xml"},
        # NaN passes every "<= 0" test, so finiteness is checked explicitly
        {"hbar": math.nan}, {"m": math.inf}, {"omega": math.nan}, {"omega": math.inf},
        {"omega": -2.0}, {"hbar": 0.0}, {"m": -math.inf},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("argv", [
        ("verify", "bridge", "--omega", "nan"),
        ("spectrum", "--g", "1/3", "--hbar", "nan"),
    ])
    def test_non_finite_flag_exits_2_without_output(self, tmp_path, argv):
        assert run(tmp_path, *argv) == 2
        assert not list(tmp_path.iterdir())

    def test_non_finite_config_file_value_exits_2(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hbar=inf\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        assert run(tmp_path, "verify", "bridge") == 2
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("key", ["tol_fock", "tol_quad", "tol_traj"])
    def test_tolerance_keyword_is_refused(self, key):
        with pytest.raises(TypeError, match=key):
            RunConfig(**{key: 1e-8})

    def test_tolerance_flag_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "fock", "--tol-fock", "1") == 2
        assert "unrecognized arguments: --tol-fock" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["tol_fock", "tol_quad", "tol_traj"])
    def test_tolerance_config_line_exits_2(self, tmp_path, monkeypatch, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=1\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        assert run(tmp_path, "eigenstate", "--n1", "1", "--n2", "1") == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown config key '{key}'\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_config_file_layering(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega=2.0\n# comment line\nformat=json\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        code = run(tmp_path, "trajectory", "--g", "1/2", "--out", "t1")
        assert code == 0
        meta = read_meta(tmp_path, "t1")
        assert meta["omega"] == 2.0
        assert meta["dataset"] == "t1.json"

    def test_flags_override_config_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega=2.0\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        code = run(tmp_path, "trajectory", "--g", "1/2", "--omega", "1.0", "--out", "t2")
        assert code == 0
        assert read_meta(tmp_path, "t2")["omega"] == 1.0

    def test_unknown_config_key_exits_2(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        assert run(tmp_path, "verify", "landau") == 2

    def test_invalid_truncation_flag_exits_2(self, tmp_path):
        assert run(tmp_path, "verify", "fock", "--truncation", "2") == 2

    def test_unknown_subcommand_exits_2(self, tmp_path):
        assert main(["no-such-command"]) == 2

    def test_config_file_that_is_not_utf8_is_named(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfeomega=2.0\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        assert run(tmp_path, "verify", "landau") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read config file {cfg}")


def flag(key):
    return "--" + key.replace("_", "-")


# command -> the run settings its handler reads; every command also takes --outdir
READS = {
    "trajectory": ("m", "omega", "format"),
    "lissajous": ("format",),
    "spectrum": ("hbar", "omega", "format"),
    "degeneracy": ("truncation", "format"),
    "eigenstate": ("m", "omega", "hbar", "format"),
    "coherent": ("m", "omega", "hbar", "format"),
    "landau": (),
    "verify": ("m", "omega", "hbar", "truncation"),
}
# verify suite -> the run settings it reads
SUITE_READS = {"algebra": (), "classical": (), "fock": ("truncation",),
               "bridge": ("m", "omega", "hbar"), "aniso": (), "landau": ()}
# an accepted value of each setting other than outdir
SETTING_VALUES = {"m": "2", "omega": "3/2", "hbar": "1/2", "truncation": "10", "format": "json"}
# a value of each former check-tolerance flag, which no command offers
TOLERANCE_VALUES = {"tol_fock": "1e-11", "tol_quad": "1e-7", "tol_traj": "1e-5"}
# a small run of each command that writes a file
COMMAND_ARGV = {
    "trajectory": ("--g", "2/3", "--samples", "16"),
    "lissajous": ("--omega1", "1", "--omega2", "3", "--samples", "16"),
    "spectrum": ("--g", "1/3", "--nmax", "2"),
    "degeneracy": ("--g", "1/3", "--emax", "3"),
    "eigenstate": ("--n1", "1", "--n2", "0", "--points", "5"),
    "coherent": ("--alpha", "0.5,0", "--beta", "0,0.5", "--points", "5"),
    "landau": ("--omega-b", "1", "--lambda", "1", "--out", "phase"),
    "verify": ("all",),
}
# (argv, the settings its handler reads) for every command and every verify suite
HANDLER_ROWS = [((c, *COMMAND_ARGV[c]), READS[c]) for c in sorted(READS)] + [
    (("verify", suite), keys) for suite, keys in sorted(SUITE_READS.items())]


class TestRunSettings:
    """Each command offers the run settings its handler reads; verify <suite> those its suite
    reads.  A flag and a RIAHO_CONFIG line parse a setting's text by one rule."""

    def test_parser_offers_each_command_its_row(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        offered = {name: {a.dest for a in p._actions if a.dest.startswith("cfg_")}
                   for name, p in sub.choices.items()}
        assert offered == {c: {f"cfg_{k}" for k in (*keys, "outdir")} for c, keys in READS.items()}
        assert sum(map(len, offered.values())) == 29

    @pytest.mark.parametrize("argv, reads", HANDLER_ROWS,
                             ids=[" ".join(argv[:2]) for argv, _ in HANDLER_ROWS])
    def test_each_handler_reads_exactly_its_row(self, tmp_path, monkeypatch, argv, reads):
        # the tables above are what the code reads, so a refused flag had no effect
        read = set()
        real = cli.resolve_config

        class Recording:
            def __init__(self, config):
                self.config = config

            def __getattr__(self, name):
                read.update(("m", "omega", "hbar") if name == "units" else (name,))
                return getattr(self.config, name)

        monkeypatch.setattr(cli, "resolve_config", lambda args: Recording(real(args)))
        assert run(tmp_path, *argv) == 0
        assert read == {*reads, "outdir"}

    @pytest.mark.parametrize("key", [*SETTING_VALUES, "outdir", *TOLERANCE_VALUES])
    @pytest.mark.parametrize("command", sorted(READS))
    def test_command_takes_only_the_settings_it_reads(self, tmp_path, capsys, command, key):
        value = str(tmp_path) if key == "outdir" else {**SETTING_VALUES, **TOLERANCE_VALUES}[key]
        code = run(tmp_path, command, *COMMAND_ARGV[command], flag(key), value)
        if key in READS[command] or key == "outdir":
            assert code == 0
            assert list(tmp_path.iterdir())
        else:
            assert code == 2
            assert f"unrecognized arguments: {flag(key)}" in capsys.readouterr().err
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("key", [*READS["verify"], *TOLERANCE_VALUES])
    @pytest.mark.parametrize("suite", sorted(SUITE_READS))
    def test_verify_suite_refuses_the_settings_it_does_not_read(self, tmp_path, capsys, suite,
                                                                key):
        value = {**SETTING_VALUES, **TOLERANCE_VALUES}[key]
        code = run(tmp_path, "verify", suite, flag(key), value)
        if key in SUITE_READS[suite]:
            assert code == 0
        else:
            assert code == 2
            err = capsys.readouterr().err
            if key in TOLERANCE_VALUES:  # refused by the parser, before any suite is chosen
                assert f"unrecognized arguments: {flag(key)}" in err
            else:
                assert err == f"error: verify {suite} does not read {flag(key)}\n"
            assert not list(tmp_path.iterdir())

    def test_config_file_keys_stay_global(self, tmp_path, monkeypatch):
        # a line that the command does not read is ignored, as it always was
        assert run(tmp_path, "verify", "algebra", "--out", "flagless") == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=3\nomega=1/2\ntruncation=20\nformat=json\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        assert run(tmp_path, "verify", "algebra", "--out", "configured") == 0
        reports = [json.loads((tmp_path / f"{stem}.json").read_text())
                   for stem in ("flagless", "configured")]
        for report in reports:
            for row in report["checks"]:
                row.pop("elapsed")
        assert reports[0] == reports[1]

    def test_rational_setting_in_flag_and_config_file(self, tmp_path, monkeypatch):
        def trajectory(stem, *argv):
            assert run(tmp_path, "trajectory", "--g", "2/3", "--samples", "64", "--out", stem,
                       *argv) == 0
            meta = (tmp_path / f"{stem}.meta.json").read_text().replace(f'"{stem}.csv"', "")
            return (tmp_path / f"{stem}.csv").read_bytes(), meta

        want = trajectory("decimal", "--omega", "0.7142857142857143")
        assert trajectory("flag", "--omega", "5/7") == want
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega=5/7\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        assert trajectory("file") == want

    @pytest.mark.parametrize("key, text", [("omega", "5/0"), ("hbar", "x"), ("truncation", "12.5"),
                                           ("omega", "nan"), ("m", "1e400")])
    def test_bad_setting_text_is_named_from_flag_and_file(self, tmp_path, monkeypatch, capsys,
                                                          key, text):
        assert run(tmp_path, "verify", f"{flag(key)}={text}") == 2
        from_flag = capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={text}\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        assert run(tmp_path, "verify") == 2
        from_file = capsys.readouterr().err
        assert key in from_flag and from_file == from_flag.replace("error: ", f"error: {cfg}:1: ")
        assert list(tmp_path.iterdir()) == [cfg]


class TestUnwritableOutput:
    """An output path that cannot be created or written exits 2 with one line naming it."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "a-file"
        path.write_text("")
        return path

    def _assert_one_error_line(self, capsys, path):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--g", "1/3", "--nmax", "2"),
        ("verify", "landau"),
        ("landau", "--omega-b", "1", "--lambda", "1", "--out", "phase"),
    ])
    def test_outdir_that_is_a_file(self, blocker, capsys, argv):
        assert main([*argv, "--outdir", str(blocker)]) == 2
        self._assert_one_error_line(capsys, blocker)

    def test_config_outdir_that_is_a_file(self, tmp_path, blocker, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"outdir={blocker}\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        assert main(["spectrum", "--g", "1/3", "--nmax", "2"]) == 2
        self._assert_one_error_line(capsys, blocker)

    def test_dataset_path_that_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "levels.csv").mkdir()
        assert run(tmp_path, "spectrum", "--g", "1/3", "--nmax", "2", "--out", "levels") == 2
        self._assert_one_error_line(capsys, tmp_path / "levels.csv")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_sidecar_leaves_no_dataset(self, tmp_path, capsys, fmt):
        (tmp_path / "levels.meta.json").mkdir()
        assert run(tmp_path, "spectrum", "--g", "1/3", "--nmax", "2", "--out", "levels",
                   "--format", fmt) == 2
        self._assert_one_error_line(capsys, tmp_path / "levels.meta.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["levels.meta.json"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("failing", ["levels.{fmt}", "levels.meta.json"],
                             ids=["dataset", "sidecar"])
    def test_write_failing_part_way_leaves_no_file(self, tmp_path, capsys, monkeypatch, fmt,
                                                   failing):
        failing = tmp_path / failing.format(fmt=fmt)
        real_open = Path.open

        def open_on_full_disk(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            return DiskFullAfter(handle, 40) if path == failing else handle

        monkeypatch.setattr(Path, "open", open_on_full_disk)
        assert run(tmp_path, "spectrum", "--g", "1/3", "--nmax", "2", "--out", "levels",
                   "--format", fmt) == 2
        self._assert_one_error_line(capsys, failing)
        assert list(tmp_path.iterdir()) == []


class DiskFullAfter:
    """Text file whose first write keeps ``limit`` characters, then fails with ENOSPC."""

    def __init__(self, handle, limit):
        self.handle, self.limit = handle, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: self.limit])
        self.handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def old_csv(columns, rows):
    """The CSV text of the per-cell writer: one ``_fmt`` call per cell."""
    lines = [",".join(columns)]
    lines.extend(",".join(cli._fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def old_json(columns, rows):
    """The JSON text of the per-cell writer: the whole document through json.dumps."""
    payload = {"schema_version": cli.SCHEMA_VERSION, "columns": list(columns), "rows": rows}
    return json.dumps(payload, indent=2) + "\n"


OLD_WRITERS = {"csv": old_csv, "json": old_json}


def assert_written_as_before(path, columns, rows, fmt):
    """The file holds the bytes the per-cell writer would have written to it."""
    expected = path.with_name("expected" + path.suffix)
    expected.write_text(OLD_WRITERS[fmt](columns, rows))  # the old writer's text-mode write
    assert path.read_bytes() == expected.read_bytes()


EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1e16, 2.0**53 + 2,
               1.7976931348623157e308]
EDGE_INTS = [0, -7, 2**64 + 1]
EDGE_STRINGS = ['say "hi"', "back\\slash", "café", ""]


def columns_of(header, rows):
    """The columns of a row table, one list per name of ``header``."""
    return [[row[i] for row in rows] for i in range(len(header))]


def rows_of(columns):
    """The rows of equal-length columns, float arrays as Python floats."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return [list(row) for row in zip(*cells)]


_AXIS = np.linspace(-3.0, 3.0, 9)
_CIRCULAR = []
_CIRCULAR.append(_CIRCULAR)
_X1, _X2 = np.meshgrid(_AXIS, _AXIS, indexing="ij")


class TestDatasetWriter:
    """write_dataset writes byte for byte what the per-cell writer wrote for the same rows."""

    def write(self, directory, fmt, header, columns):
        return cli.write_dataset(directory / "table", header, columns, RunConfig(format=fmt))

    TABLES = {
        "floats": (["x"], [[v] for v in EDGE_FLOATS + [-v for v in EDGE_FLOATS]]),
        "mixed": (["f", "i", "b", "s"],
                  [[f, EDGE_INTS[k % 3], k % 2 == 0, EDGE_STRINGS[k % 4]]
                   for k, f in enumerate(EDGE_FLOATS)]),
        "ints": (["n", "m"], [[n, -n] for n in EDGE_INTS]),
        "bools": (["flag"], [[True], [False]]),
        "strings": (["s"], [[s] for s in EDGE_STRINGS]),
        "one-row": (["a", "b", "c"], [[1.5, 2, "x"]]),
        "empty": (["class_id", "E_num"], []),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_hand_picked_tables(self, tmp_path, fmt, table):
        header, rows = self.TABLES[table]
        path = self.write(tmp_path, fmt, header, columns_of(header, rows))
        assert path == tmp_path / f"table.{fmt}"
        assert_written_as_before(path, header, rows, fmt)

    # float-array columns, as the sampling commands hand them over
    ARRAY_TABLES = {
        # x1 repeats each axis value 9 times in a row, x2 cycles through the axis
        "meshgrid axes": (["x1", "x2", "psi"],
                          [_X1.ravel(), _X2.ravel(), np.exp(-_X1 * _X2).ravel()]),
        "signed zeros": (["z", "t"], [np.array([0.0, -0.0, -0.0, 0.0] * 10 + [-0.0]),
                                      np.arange(41) / 7]),
        "one-row": (["x", "y", "n"], [np.array([-0.0]), np.array([2.0**53 + 2]), [3]]),
        "empty": (["x", "y", "n"], [np.zeros(0), np.zeros(0), []]),
        "beside list columns": (["t", "n", "s"], [np.array([0.5, 0.5, 1e-300]), [1, 2, 3],
                                                  ["a", "b", "c"]]),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("table", sorted(ARRAY_TABLES))
    def test_float_array_tables(self, tmp_path, fmt, table):
        header, columns = self.ARRAY_TABLES[table]
        path = self.write(tmp_path, fmt, header, columns)
        assert_written_as_before(path, header, rows_of(columns), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column, part", [
        ([0.1, 0.1, -2.5, -2.5, 1e300, 1e300], "%s"),  # 2 * distinct == n: texts spliced in
        ([0.1, 0.1, -2.5, -2.5, 1 / 3], None),          # 2 * distinct == n + 1: the float spec
        ([0.0, -0.0, 0.0, -0.0], "%s"),                 # -0.0 and 0.0 are two distinct values
        ([0.0, -0.0, 5e-324], None),
    ])
    def test_distinct_value_threshold(self, tmp_path, fmt, column, part):
        csv = fmt == "csv"
        for cells in (column, np.array(column)):
            spec, _ = cli._column_cells("x", cells, csv)
            assert spec == (part or ("%.17g" if csv else "%r"))
            path = self.write(tmp_path, fmt, ["x"], [cells])
            assert_written_as_before(path, ["x"], [[v] for v in column], fmt)

    @given(width=st.integers(1, 5), arrays=st.booleans(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_float_tables(self, width, arrays, data):
        cell = st.floats(allow_nan=False, allow_infinity=False)
        rows = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=8))
        header = [f"c{i}" for i in range(width)]
        columns = columns_of(header, rows)
        if arrays:
            columns = [np.array(c, dtype=np.float64) for c in columns]
        with tempfile.TemporaryDirectory() as out:
            for fmt in ("csv", "json"):
                path = self.write(Path(out), fmt, header, columns)
                assert_written_as_before(path, header, rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("array", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_rejected(self, tmp_path, fmt, array, bad):
        column = [0.0, 0.5, bad]
        columns = [[0.0, 0.5, 1.0], np.array(column) if array else column]
        with pytest.raises(ValueError, match="column 'x' holds a non-finite float"):
            self.write(tmp_path, fmt, ["t", "x"], columns)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.uint64])
    def test_numpy_int_column_writes_as_python_ints(self, tmp_path, fmt, kind):
        # a json list column of np.int64 cells raised TypeError
        ints, header = [0, 3, 200, 7, 3], ["n", "s"]
        path = self.write(tmp_path, fmt, header, [[kind(n) for n in ints], list("abcde")])
        assert_written_as_before(path, header, [[n, c] for n, c in zip(ints, "abcde")], fmt)
        numpy_bytes = path.read_bytes()
        assert self.write(tmp_path, fmt, header, [ints, list("abcde")]).read_bytes() == numpy_bytes

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", [np.float64, np.float32])
    def test_numpy_float_column_writes_as_python_floats(self, tmp_path, fmt, kind):
        cells = [kind(v) for v in (0.1, -0.0, 1 / 3, 0.1, 2.5e-8)]
        path = self.write(tmp_path, fmt, ["x"], [cells])
        assert_written_as_before(path, ["x"], [[float(c)] for c in cells], fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [np.float64("nan"), np.float32("inf")])
    def test_non_finite_numpy_float_cell_is_rejected(self, tmp_path, fmt, bad):
        # a list of np.float64 cells skipped the finiteness check: json got NaN, csv nan
        with pytest.raises(ValueError, match="column 'x' holds a non-finite float"):
            self.write(tmp_path, fmt, ["x"], [[type(bad)(0.5), bad]])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cell", [1j, object(), {1, 2}, b"x", _CIRCULAR])
    def test_cell_the_format_cannot_write_is_rejected(self, tmp_path, fmt, cell):
        # json.dumps raised TypeError (ValueError for the list that holds itself)
        with pytest.raises(ValueError, match=f"column 'c' has a cell the {fmt} format"):
            self.write(tmp_path, fmt, ["n", "c"], [[1, 2], [cell, cell]])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("header, columns", [
        (["t", "x"], [[0.0, 1], [0.5, 0.25]]),        # float, then int
        (["n", "flag"], [[1, True], [True, False]]),  # int, then bool
        (["n"], [[3, 2.0]]),                          # int, then float
        (["s"], [["a", 1]]),                          # str, then int
        # a list column beside float arrays: a trajectory table whose last t is an int
        (["t", "x1", "x2"], [[0.0, 0.5, 1], np.zeros(3), np.ones(3)]),
    ])
    def test_column_changing_type_is_rejected(self, tmp_path, fmt, header, columns):
        with pytest.raises(ValueError, match=f"column {header[0]!r} mixes"):
            self.write(tmp_path, fmt, header, columns)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("header, columns, message", [
        (["a", "b"], [[1.0, 3.0], [2.0]], "differ in length"),
        (["a", "b"], [np.zeros(2), np.zeros(3)], "differ in length"),
        (["a"], [[1.0], [2.0]], "1 named columns got 2"),
        (["a", "b"], [[1.0]], "2 named columns got 1"),
        ([], [], "at least one column"),
        (["a"], [np.zeros((2, 2))], "column 'a' is a 2-d float64 array"),
        (["a"], [np.arange(3)], "column 'a' is a 1-d int64 array"),
    ])
    def test_columns_must_match_the_header_and_each_other(self, tmp_path, fmt, header, columns,
                                                           message):
        with pytest.raises(ValueError, match=message):
            self.write(tmp_path, fmt, header, columns)
        assert list(tmp_path.iterdir()) == []


DATASET_COMMANDS = {
    "trajectory": ("--g", "2/3", "--samples", "64"),
    "lissajous": ("--omega1", "1", "--omega2", "3", "--samples", "64"),
    "spectrum": ("--g=-1/3", "--nmax", "4"),
    "degeneracy": ("--g", "5/4", "--emax", "6"),
    "eigenstate": ("--n1", "2", "--n2", "3", "--points", "9"),
    "coherent": ("--alpha", "0.5,-0.3", "--beta", "0.2,0.6", "--t", "1", "--gamma", "0.5",
                 "--g", "1/2", "--points", "7"),
}
# the commands that sample floats hand over float64 arrays, the others lists
SAMPLING_COMMANDS = {"trajectory", "lissajous", "eigenstate", "coherent"}


class TestDatasetCommandBytes:
    """Each dataset command writes the per-cell writer's bytes for the columns it hands over."""

    def capture(self, monkeypatch, change=None):
        handed = []
        real = cli.write_dataset

        def wrapper(stem, header, columns, config):
            if change:
                change(columns)
            handed.append((header, columns))
            return real(stem, header, columns, config)

        monkeypatch.setattr(cli, "write_dataset", wrapper)
        return handed

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(DATASET_COMMANDS))
    def test_file_matches_the_old_writer(self, tmp_path, monkeypatch, fmt, command):
        handed = self.capture(monkeypatch)
        assert run(tmp_path, command, *DATASET_COMMANDS[command], "--format", fmt) == 0
        [(header, columns)] = handed
        assert {isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns} == {
            command in SAMPLING_COMMANDS}
        rows = rows_of(columns)
        assert rows
        assert_written_as_before(tmp_path / f"{command}.{fmt}", header, rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, cell", [
        ("spectrum", True),      # int column, then a bool
        ("degeneracy", False),   # int column, then a bool
    ])
    def test_mixed_column_leaves_no_files(self, tmp_path, monkeypatch, capsys, fmt, command,
                                          cell):
        def change(columns):
            columns[0][-1] = cell

        self.capture(monkeypatch, change)
        assert run(tmp_path, command, *DATASET_COMMANDS[command], "--format", fmt) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "mixes" in err[0]
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """main builds its parser on the first call and reuses it; no call leaves state in it."""

    def test_two_calls_build_the_parser_once(self, tmp_path, monkeypatch):
        built = []
        real = cli.build_parser

        def counting():
            built.append(None)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        assert run(tmp_path, "spectrum", "--g", "1/3", "--nmax", "2") == 0
        assert run(tmp_path, "degeneracy", "--g", "1/3", "--emax", "2") == 0
        assert len(built) == 1

    @pytest.mark.parametrize("first, code", [
        (("--g", "1/3", "--out", "a", "--nmax", "x"), 2),  # usage error, from argparse
        (("--g", "1/0", "--out", "a", "--nmax", "3"), 2),  # ValueError, from the handler
        (("--g", "1/3", "--out", "a", "--nmax", "3"), 0),  # a run writing a.csv
    ])
    def test_a_call_leaves_the_next_clean(self, tmp_path, capsys, first, code):
        assert run(tmp_path, "spectrum", *first) == code
        assert run(tmp_path, "spectrum", "--g", "1/2") == 0
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 9 * 9  # the default nmax 8, not the first call's
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["spectrum.csv", "spectrum.meta.json"]
            + (["a.csv", "a.meta.json"] if code == 0 else []))
        assert read_meta(tmp_path, "spectrum")["g"] == {"num": 1, "den": 2}

    def test_help_is_what_a_fresh_parser_prints(self, capsys):
        expected = cli.build_parser().format_help()
        for _ in range(2):
            assert main(["--help"]) == 0
            assert capsys.readouterr().out == expected


class TestTrajectory:
    def test_period_matches_figure_caption(self, tmp_path):
        # g = 2/3 closes after three turns of the slow mode
        assert run(tmp_path, "trajectory", "--g", "2/3", "--r1", "1", "--r2", "2",
                   "--out", "traj") == 0
        meta = read_meta(tmp_path, "traj")
        assert meta["closed"] is True
        assert abs(meta["period"] - 6 * math.pi) < 1e-12
        assert meta["cusp"] is False
        assert meta["origin_crossing"] is False
        assert meta["g"] == {"num": 2, "den": 3}

    def test_csv_shape_and_first_row(self, tmp_path):
        run(tmp_path, "trajectory", "--g", "2/3", "--r1", "1", "--r2", "2",
            "--samples", "64", "--out", "traj")
        header, rows = read_csv(tmp_path / "traj.csv")
        assert header == ["t", "x1", "x2", "p1", "p2"]
        assert len(rows) == 64
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(3.0)  # R1 + R2 on the x1 axis

    def test_curve_closes_between_first_and_last_row(self, tmp_path):
        run(tmp_path, "trajectory", "--g", "4/5", "--r1", "2", "--r2", "1",
            "--samples", "129", "--out", "traj")
        _, rows = read_csv(tmp_path / "traj.csv")
        first = np.array([float(v) for v in rows[0][1:]])
        last = np.array([float(v) for v in rows[-1][1:]])
        assert np.max(np.abs(first - last)) < 1e-9

    def test_circle_through_origin(self, tmp_path):
        run(tmp_path, "trajectory", "--g", "1", "--r1", "1", "--r2", "1", "--out", "circ")
        assert read_meta(tmp_path, "circ")["origin_crossing"] is True

    def test_cusp_flag(self, tmp_path):
        run(tmp_path, "trajectory", "--g", "1/3", "--r1", "1", "--r2", "2", "--out", "cusp")
        assert read_meta(tmp_path, "cusp")["cusp"] is True

    def test_window_overrides_closure(self, tmp_path):
        run(tmp_path, "trajectory", "--g", "1/3", "--window", "2.5", "--out", "win")
        meta = read_meta(tmp_path, "win")
        assert meta["closed"] is False
        assert meta["period"] is None
        assert meta["window"] == 2.5

    def test_conserved_values_recorded(self, tmp_path):
        run(tmp_path, "trajectory", "--g", "1/3", "--out", "cons")
        conserved = read_meta(tmp_path, "cons")["conserved"]
        assert "H_g" in conserved and "J0" in conserved and "L2" in conserved
        assert all(len(v) == 2 for v in conserved.values())

    def test_byte_identical_across_runs(self, tmp_path):
        run(tmp_path, "trajectory", "--g", "2/3", "--out", "a")
        run(tmp_path, "trajectory", "--g", "2/3", "--out", "b")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        meta_a = (tmp_path / "a.meta.json").read_text().replace('"a.csv"', '"x"')
        meta_b = (tmp_path / "b.meta.json").read_text().replace('"b.csv"', '"x"')
        assert meta_a == meta_b

    @pytest.mark.parametrize("argv", [
        ("trajectory", "--g", "abc"),
        ("trajectory", "--g", "1/2", "--samples", "1"),
        ("trajectory", "--g", "1/2", "--r1", "-1"),
        ("trajectory", "--g", "1/2", "--window", "0"),
        ("trajectory", "--g", "1/2", "--r1", "nan"),
        ("trajectory", "--g", "1/2", "--gamma2", "inf"),
        ("trajectory", "--g", "1/2", "--window", "nan"),
        ("trajectory", "--g", "1/2", "--window", "inf"),
        # the closure period 2 pi * 10^308 leaves the float range
        ("trajectory", "--g", "1e-308"),
        # so does J0 ~ R1^2 among the conserved values
        ("trajectory", "--g", "1/2", "--r1", "1e200"),
        # w ell1 t overflows, so every sample past t = 0 is nan
        ("trajectory", "--g", "1e308"),
    ])
    def test_invalid_inputs_exit_2(self, tmp_path, argv):
        assert run(tmp_path, *argv) == 2
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("trajectory", "--g", "1e308"),
    ("trajectory", "--g", "1/2", "--window", "inf"),
    ("trajectory", "--g", "1e-308"),
    ("lissajous", "--omega1", "1", "--omega2", "1", "--a1", "1e308", "--b1", "1.7e308"),
    ("lissajous", "--omega1", "1", "--omega2", "2", "--window", "inf"),
    ("eigenstate", "--n1", "1", "--n2", "0", "--extent", "1e308"),
    ("coherent", "--alpha", "0.1,0", "--beta", "0,0", "--extent", "1e308"),
])
def test_overflowing_samples_print_only_the_error_line(tmp_path, capsys, argv):
    # numpy would warn about the overflow before the samples are rejected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the samples leave the float range for these parameters"]
    assert not list(tmp_path.iterdir())


_COHERENT = ("coherent", "--alpha", "0.1,0", "--beta", "0,0")


@pytest.mark.parametrize("argv", [
    _COHERENT + ("--t", "1e308", "--g", "2"),
    _COHERENT + ("--t", "1e307", "--g", "1/3"),
])
def test_time_with_overflowing_phase_prints_only_the_error_line(tmp_path, capsys, argv):
    # the phase omega*ell*t overflowed and numpy warned before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "float range" in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,name", [
    (("eigenstate", "--n1", "1", "--n2", "0", "--extent", "nan"), "extent"),
    (("eigenstate", "--n1", "1", "--n2", "0", "--extent", "inf"), "extent"),
    (_COHERENT + ("--extent", "nan"), "extent"),
    (_COHERENT + ("--extent=-inf",), "extent"),
    (_COHERENT + ("--t", "inf"), "t"),
    (_COHERENT + ("--t", "nan"), "t"),
    (_COHERENT + ("--gamma", "inf"), "gamma"),
    (_COHERENT + ("--gamma", "nan"), "gamma"),
])
def test_non_finite_grid_and_angles_print_only_the_error_line(tmp_path, capsys, argv, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, *argv) == 2
    value, kind = argv[-1].split("=")[-1], "a positive finite" if name == "extent" else "a finite"
    assert capsys.readouterr().err.splitlines() == [f"error: {name} {value} is not {kind} real"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, line", [
    # printed m Fraction(-1, 2) and omega Fraction(0, 1)
    (("verify", "--m=-1/2"), "error: m -1/2 is not a positive finite real"),
    (("trajectory", "--g", "1/2", "--omega=0/3"), "error: omega 0 is not a positive finite real"),
    (("verify", "bridge", "--hbar=-3/4"), "error: hbar -3/4 is not a positive finite real"),
])
def test_rejected_rational_prints_as_typed(tmp_path, capsys, argv, line):
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not list(tmp_path.iterdir())


class TestLissajous:
    def test_closure_for_one_three(self, tmp_path):
        assert run(tmp_path, "lissajous", "--omega1", "1", "--omega2", "3",
                   "--samples", "65", "--out", "lis") == 0
        meta = read_meta(tmp_path, "lis")
        assert meta["commensurate"] is True
        assert (meta["l1"], meta["l2"]) == (3, 1)
        assert abs(meta["period"] - 2 * math.pi) < 1e-12
        _, rows = read_csv(tmp_path / "lis.csv")
        assert abs(float(rows[0][1]) - float(rows[-1][1])) < 1e-9
        assert abs(float(rows[0][2]) - float(rows[-1][2])) < 1e-9

    def test_near_resonant_float_pair_is_detected(self, tmp_path):
        # exited 2 with "labels do not satisfy l1*w1 == l2*w2"
        assert run(tmp_path, "lissajous", "--omega1", "1.0", "--omega2", "3.0000000003",
                   "--samples", "16", "--out", "near") == 0
        meta = read_meta(tmp_path, "near")
        assert (meta["l1"], meta["l2"]) == (3, 1)

    def test_open_pair_requires_window(self, tmp_path):
        assert run(tmp_path, "lissajous", "--omega1", "1",
                   "--omega2", "3.14159265358979", "--out", "open") == 2
        assert run(tmp_path, "lissajous", "--omega1", "1",
                   "--omega2", "3.14159265358979", "--window", "10", "--out", "open") == 0
        meta = read_meta(tmp_path, "open")
        assert meta["commensurate"] is False
        assert meta["closed"] is False and meta["window"] == 10.0

    def test_overflowing_ratio_needs_window(self, tmp_path, capsys):
        # the float ratio 1e308 / 1e-308 overflows: not commensurate, not a crash
        assert run(tmp_path, "lissajous", "--omega1", "1e308", "--omega2", "1e-308") == 2
        assert "not commensurate; give --window" in capsys.readouterr().err

    def test_json_dataset_format(self, tmp_path):
        run(tmp_path, "lissajous", "--omega1", "1", "--omega2", "4",
            "--samples", "16", "--format", "json", "--out", "lj")
        payload = json.loads((tmp_path / "lj.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["columns"] == ["t", "x1", "x2"]
        assert len(payload["rows"]) == 16


class TestSpectrum:
    def test_exact_rows_match_engine(self, tmp_path):
        from riaho.coupling import Coupling
        from riaho.fockeng import FockBasis, spectrum_rows

        assert run(tmp_path, "spectrum", "--g", "1/3", "--nmax", "4", "--out", "sp") == 0
        header, rows = read_csv(tmp_path / "sp.csv")
        assert header == ["n1", "n2", "E_exact_num", "E_exact_den", "class_id"]
        want = spectrum_rows(Coupling(F(1, 3)), FockBasis(4))
        got = [dict(zip(header, map(int, row))) for row in rows]
        assert got == want

    def test_ground_level_row(self, tmp_path):
        run(tmp_path, "spectrum", "--g", "1/3", "--nmax", "3", "--out", "sp")
        _, rows = read_csv(tmp_path / "sp.csv")
        assert rows[0] == ["0", "0", "1", "1", "0"]

    def test_invalid_nmax_exits_2(self, tmp_path):
        assert run(tmp_path, "spectrum", "--g", "1/3", "--nmax", "0") == 2


class TestDegeneracy:
    def test_class_at_seven_thirds(self, tmp_path):
        assert run(tmp_path, "degeneracy", "--g", "1/3", "--emax", "3", "--out", "deg") == 0
        header, rows = read_csv(tmp_path / "deg.csv")
        by_energy = {(r[1], r[2]): r for r in rows}
        row = by_energy[("7", "3")]
        assert row[header.index("multiplicity")] == "2"
        assert row[header.index("states")] == "0:2;1:0"
        assert row[header.index("complete")] == "true"
        assert row[header.index("infinite")] == "false"

    def test_lowest_landau_level_flagged_infinite(self, tmp_path):
        run(tmp_path, "degeneracy", "--g", "1", "--emax", "4", "--out", "deg")
        header, rows = read_csv(tmp_path / "deg.csv")
        assert rows  # E = 2 n1 + 1 classes
        for row in rows:
            assert row[header.index("infinite")] == "true"
            assert row[header.index("complete")] == "false"
        assert rows[0][header.index("E_num")] == "1"

    def test_isotropic_multiplicities(self, tmp_path):
        run(tmp_path, "degeneracy", "--g", "0", "--emax", "5", "--out", "deg")
        header, rows = read_csv(tmp_path / "deg.csv")
        mult = [int(r[header.index("multiplicity")]) for r in rows]
        assert mult == [1, 2, 3, 4, 5]

    def test_invalid_emax_exits_2(self, tmp_path):
        assert run(tmp_path, "degeneracy", "--g", "1/3", "--emax", "x") == 2


class TestEigenstate:
    def test_grid_and_norm(self, tmp_path):
        assert run(tmp_path, "eigenstate", "--n1", "1", "--n2", "0",
                   "--points", "11", "--out", "eig") == 0
        header, rows = read_csv(tmp_path / "eig.csv")
        assert header == ["x1", "x2", "re_psi", "im_psi"]
        assert len(rows) == 121
        meta = read_meta(tmp_path, "eig")
        assert meta["norm_quadrature"] == pytest.approx(1.0, abs=1e-8)

    def test_negative_index_exits_2(self, tmp_path):
        assert run(tmp_path, "eigenstate", "--n1", "-1", "--n2", "0") == 2

    def test_quadrature_order_follows_the_degree(self, tmp_path):
        # a fixed order 40 integrates degree <= 79 only, so n1 + n2 = 40 used to exit 2
        assert run(tmp_path, "eigenstate", "--n1", "25", "--n2", "15", "--points", "5",
                   "--out", "eig") == 0
        assert read_meta(tmp_path, "eig")["norm_quadrature"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n1, n2", [("30", "30"), ("45", "45")])
    def test_norm_off_by_more_than_its_tolerance_exits_2(self, tmp_path, capsys, n1, n2):
        # the prefactor cancels at the outer quadrature nodes: the norm reads 1.00097 at
        # (30, 30) and 3.9e9 at (45, 45), so neither the norm nor the samples are trustworthy
        assert run(tmp_path, "eigenstate", "--n1", n1, "--n2", n2, "--points", "5") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: eigenstate norm ")
        assert err[0].endswith(" is off from 1 by more than 1e-08")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n1", ["250", "400", "1000"])
    def test_states_past_the_float_range_exit_2(self, tmp_path, capsys, n1):
        # 400 wrote a zero state with norm 0.0, 1000 ended in a RecursionError traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "eigenstate", "--n1", n1, "--n2", "0", "--points", "5") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "float range" in err[0]
        assert not list(tmp_path.iterdir())


class TestCoherent:
    def test_gamma_pi_flips_labels(self, tmp_path):
        assert run(tmp_path, "coherent", "--alpha", "1,0", "--beta", "0,0",
                   "--gamma", str(math.pi), "--points", "9", "--out", "coh") == 0
        meta = read_meta(tmp_path, "coh")
        assert meta["checks"]["passed"] is True
        assert meta["lambda1"] == [1.0, 0.0]
        # rotation by pi maps the labels to (-alpha, -beta)
        from riaho.bridge import Units, coherent_state
        rotated = coherent_state(-1.0, 0.0, Units())
        header, rows = read_csv(tmp_path / "coh.csv")
        i_re, i_im = header.index("re_rotated"), header.index("im_rotated")
        for row in rows[:20]:
            want = rotated.evaluate(float(row[0]), float(row[1]))
            assert abs(complex(float(row[i_re]), float(row[i_im])) - want) < 1e-10

    def test_zero_time_evolution_is_identity(self, tmp_path):
        run(tmp_path, "coherent", "--alpha", "0.5,0.5", "--beta", "0.3,-0.2",
            "--t", "0", "--points", "7", "--out", "coh0")
        header, rows = read_csv(tmp_path / "coh0.csv")
        for row in rows:
            assert row[header.index("re_phi")] == row[header.index("re_evolved")]
            assert row[header.index("im_phi")] == row[header.index("im_evolved")]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_evolved_columns_come_from_the_shared_label_map(self, tmp_path, fmt):
        # re/im_evolved are e^{-i w t} Phi(evolved_labels(...)) bit for bit, and the
        # sidecar records those labels
        assert run(tmp_path, "coherent", "--alpha", "0.5,-0.3", "--beta", "0.2,0.6",
                   "--t", "1.0", "--gamma", "0.5", "--g", "1/2", "--points", "11",
                   "--omega", "1.25", "--format", fmt, "--out", "cohl") == 0
        units = bridge.Units(omega=1.25)
        labels = bridge.evolved_labels(0.5 - 0.3j, 0.2 + 0.6j, 1.0, Coupling(F(1, 2)), units)
        meta = read_meta(tmp_path, "cohl")
        assert [meta["evolved_alpha"], meta["evolved_beta"]] == [[z.real, z.imag] for z in labels]
        xs = np.linspace(-3.0, 3.0, 11)
        x1, x2 = np.meshgrid(xs, xs, indexing="ij")
        want = (complex(np.exp(-1j * 1.25 * 1.0))
                * bridge.coherent_state(*labels, units).evaluate(x1, x2)).ravel()
        if fmt == "csv":
            header, rows = read_csv(tmp_path / "cohl.csv")
            rows = [[float(v) for v in row] for row in rows]
        else:
            payload = json.loads((tmp_path / "cohl.json").read_text())
            header, rows = payload["columns"], payload["rows"]
        got = np.array(rows)
        assert np.array_equal(got[:, header.index("re_evolved")], want.real)
        assert np.array_equal(got[:, header.index("im_evolved")], want.imag)

    def test_evolution_residual_recorded(self, tmp_path):
        run(tmp_path, "coherent", "--alpha", "0.8,-0.5", "--beta", "0.4,0.7",
            "--t", "0.9", "--gamma", "2.1", "--g", "1/2", "--points", "5",
            "--cutoff", "24", "--out", "cohe")
        checks = read_meta(tmp_path, "cohe")["checks"]
        ids = {c["check_id"]: c for c in checks["checks"]}
        assert ids["coherent-evolution"]["status"] == "pass"
        assert ids["coherent-evolution"]["residual"] <= 1e-10

    def test_underflowed_expansion_fails_truncation(self, tmp_path):
        # exp(-|alpha|^2/2) underflows, so every expansion coefficient is 0
        assert run(tmp_path, "coherent", "--alpha", "1000,0", "--beta", "0,0",
                   "--points", "3", "--cutoff", "30", "--out", "cohu") == 1
        checks = read_meta(tmp_path, "cohu")["checks"]
        ids = {c["check_id"]: c for c in checks["checks"]}
        assert checks["passed"] is False
        assert ids["coherent-truncation"]["status"] == "fail"
        assert ids["coherent-truncation"]["residual"] == 1.0

    def test_malformed_complex_exits_2(self, tmp_path):
        assert run(tmp_path, "coherent", "--alpha", "1", "--beta", "0,0") == 2

    @pytest.mark.parametrize("alpha", ["nan,0", "1e308,0"])
    def test_non_finite_or_overflowing_label_exits_2(self, tmp_path, alpha):
        # nan used to fail deep in the checks, 1e308 raised OverflowError
        assert run(tmp_path, "coherent", "--alpha", alpha, "--beta", "0,0") == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("units", [("--m", "1e300"), ("--m", "1e308"), ("--hbar", "1e-308"),
                                       ("--m", "1e-308"), ("--omega", "1e-308")])
    def test_units_that_overflow_the_state_exit_2(self, tmp_path, capsys, units):
        # an inf state coefficient, then a nan one, used to reach the sidecar as bare NaN
        assert run(tmp_path, "coherent", "--alpha", "1,0", "--beta", "0,0", *units) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not list(tmp_path.iterdir())

    def test_cutoff_beyond_float_range_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "coherent", "--alpha", "0.1,0", "--beta", "0.1,0",
                   "--cutoff", "200") == 2
        assert "170" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestLandau:
    def payload(self, capsys):
        return json.loads(capsys.readouterr().out)

    def test_pure_landau_extension(self, tmp_path, capsys):
        assert run(tmp_path, "landau", "--omega-b", "3", "--lambda", "0") == 0
        got = self.payload(capsys)
        assert got["phase"] == "landau"
        assert (got["g_num"], got["g_den"]) == (1, 1)
        assert got["omega"] == 3.0

    def test_rotating_frame_minkowskian(self, tmp_path, capsys):
        assert run(tmp_path, "landau", "--k", "1", "--mass", "4",
                   "--omega-cap", "1") == 0
        got = self.payload(capsys)
        assert got["phase"] == "minkowskian"
        assert (got["g_num"], got["g_den"]) == (2, 1)
        assert got["omega"] == 0.5

    def test_supercritical_has_no_coupling(self, tmp_path, capsys):
        assert run(tmp_path, "landau", "--omega-b", "1", "--lambda", "-5") == 0
        got = self.payload(capsys)
        assert got["phase"] == "supercritical"
        assert got["omega"] == 2.0
        assert "g_num" not in got and "g_float" not in got

    def test_critical_case(self, tmp_path, capsys):
        assert run(tmp_path, "landau", "--omega-b", "2", "--lambda", "-4") == 0
        got = self.payload(capsys)
        assert got["phase"] == "critical"
        assert got["omega"] is None

    def test_float_coupling_field(self, tmp_path, capsys):
        assert run(tmp_path, "landau", "--omega-b", "1",
                   "--lambda", str(1.0 + 1e-9)) == 0
        got = self.payload(capsys)
        assert got["phase"] == "euclidean"
        assert "g_float" in got and "g_num" not in got
        assert got["g_float"] == pytest.approx(1 / math.sqrt(2), rel=1e-6)

    def test_out_writes_file(self, tmp_path, capsys):
        assert run(tmp_path, "landau", "--omega-b", "3", "--lambda", "0",
                   "--out", "phase") == 0
        file_payload = json.loads((tmp_path / "phase.json").read_text())
        assert file_payload == self.payload(capsys)

    @pytest.mark.parametrize("omega_b, omega", [(str(10**300), 1e300), ("1e200", 1e200)],
                             ids=["10^300", "1e200"])
    def test_omega_b_past_the_root_of_the_float_range(self, tmp_path, capsys, omega_b, omega):
        # 10^300 ended in an OverflowError traceback; 1e200 printed "omega": Infinity
        assert run(tmp_path, "landau", "--omega-b", omega_b, "--lambda", "1") == 0
        got = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert (got["omega"], got["g_float"]) == (omega, 1.0)

    @pytest.mark.parametrize("argv", [
        ("landau",),
        ("landau", "--omega-b", "1", "--k", "1"),
        ("landau", "--omega-b", "1"),
        ("landau", "--k", "1", "--mass", "1"),
        ("landau", "--k", "-1", "--mass", "1", "--omega-cap", "0"),
        ("landau", "--k", "1.7e308", "--mass", "5e-324", "--omega-cap", "1"),  # omega ~ 6e315
        ("landau", "--k", str(10**300), "--mass", f"1/{10**320}", "--omega-cap", "0"),  # 10^310
    ])
    def test_bad_inputs_exit_2(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        assert not capsys.readouterr().out


class TestVerify:
    @pytest.mark.parametrize("suite", ["algebra", "classical", "landau"])
    def test_suite_passes_and_validates(self, tmp_path, suite):
        assert run(tmp_path, "verify", suite) == 0
        report = json.loads((tmp_path / f"verify_{suite}.json").read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["suite"] == suite
        assert report["passed"] is True
        assert report["failures"] == 0
        assert report["total"] == len(report["checks"])

    def test_fock_suite_respects_truncation(self, tmp_path):
        assert run(tmp_path, "verify", "fock", "--truncation", "10") == 0
        report = json.loads((tmp_path / "verify_fock.json").read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["passed"] is True

    def test_all_is_deterministic_concatenation(self, tmp_path):
        assert run(tmp_path, "verify", "all", "--out", "r1") == 0
        assert run(tmp_path, "verify", "all", "--out", "r2") == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        report = json.loads((tmp_path / "r1.json").read_text())
        jsonschema.validate(report, SCHEMA)
        ids = [c["check_id"] for c in report["checks"]]
        assert ids[0].startswith("sp4:")          # algebra first
        assert ids[-1].startswith("rotating-frame:")  # landau last

    def test_failing_check_exits_1(self, tmp_path, monkeypatch):
        def broken(config):
            report = VerificationReport(suite="landau")
            report.add(CheckRow(check_id="forced", identity="x = y",
                                passed=False, residual=1.0))
            return report

        monkeypatch.setitem(cli._SUITE_BUILDERS, "landau", broken)
        assert run(tmp_path, "verify", "landau") == 1
        report = json.loads((tmp_path / "verify_landau.json").read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["passed"] is False
        assert report["failures"] == 1

    def test_unknown_suite_exits_2(self, tmp_path):
        assert run(tmp_path, "verify", "spectra") == 2

    def test_suites_live_beside_their_math(self):
        assert cli._SUITE_BUILDERS == {
            "algebra": suite_algebra,
            "classical": classdyn.suite_classical,
            "fock": fockeng.suite_fock,
            "bridge": bridge.suite_bridge,
            "aniso": aniso.suite_aniso,
            "landau": landau.suite_landau,
        }

    def test_math_modules_do_not_import_cli(self):
        code = ("import sys, riaho.aniso, riaho.bridge, riaho.classdyn, riaho.fockeng, "
                "riaho.landau, riaho.phasealg; assert 'riaho.cli' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


# Argument text the CLI must accept or reject with exit 2, never with a
# traceback: non-finite and extreme floats, zero, negatives and garbage.
AWKWARD = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "-1e-308", "1e400", "-1e-400",
           "5e-324", "0", "-0", "-1", "-2/3", "1/0", "", "abc", "1/2", "3")
TEXT = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=6))
PAIR = st.one_of(st.tuples(TEXT, TEXT).map(",".join), TEXT)
# magnitudes up to the float range: any finite float, and integer text of up to 309 digits
MAGNITUDE = st.one_of(TEXT, st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.integers(-(10**308), 10**308).map(str),
                      st.integers(10**299, 10**300).map(str))
SIZE = st.integers(-2, 64)  # small sizes only: a huge grid is slow, not malformed

# command -> (required flags, optional flags), each flag -> value strategy
COMMANDS = {
    "trajectory": ({"--g": TEXT}, {"--r1": TEXT, "--r2": TEXT, "--gamma1": TEXT,
                                   "--gamma2": TEXT, "--window": TEXT, "--samples": SIZE}),
    "lissajous": ({"--omega1": TEXT, "--omega2": TEXT}, {"--a1": TEXT, "--b1": TEXT, "--a2": TEXT,
                                                         "--b2": TEXT, "--window": TEXT,
                                                         "--samples": SIZE}),
    "spectrum": ({"--g": TEXT}, {"--nmax": SIZE}),
    "degeneracy": ({"--g": TEXT, "--emax": TEXT}, {}),
    "eigenstate": ({"--n1": st.integers(-1, 4), "--n2": st.integers(-1, 4)}, {"--points": SIZE}),
    "coherent": ({"--alpha": PAIR, "--beta": PAIR}, {"--g": TEXT, "--t": TEXT, "--gamma": TEXT,
                                                     "--extent": TEXT, "--points": SIZE,
                                                     "--cutoff": SIZE}),
    "landau": ({}, {"--omega-b": MAGNITUDE, "--lambda": MAGNITUDE}),
}
# run settings by the command's row of READS; a truncation stays small, as a size does
SETTING_TEXT = {"truncation": SIZE, "format": st.sampled_from(["csv", "json"]) | TEXT}


@st.composite
def malformed_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    optional = optional | {flag(key): SETTING_TEXT.get(key, TEXT) for key in READS[command]}
    flags = [*required, *(f for f in optional if draw(st.booleans()))]
    return [command, *(f"{flag}={draw((required | optional)[flag])}" for flag in flags)]


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@given(argv=malformed_argv())
@settings(max_examples=50, deadline=None)
def test_malformed_arguments_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = run(Path(out), *argv)
        assert code in (0, 1, 2)
        for path in Path(out).glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject_constant)
        if argv[0] == "landau" and code == 0:  # landau prints its JSON and writes no file
            json.loads(stdout.getvalue(), parse_constant=reject_constant)


# RIAHO_CONFIG lines: known keys and junk keys with awkward values.  An outdir is always a
# path inside the example's temporary directory ("@" stands for it), so nothing is written
# elsewhere; "a-file" there is a regular file, so an outdir through it cannot be created.
OUTDIR = st.one_of(st.sampled_from(["", "new", "new/sub", "a-file", "a-file/sub"]),
                   st.text(alphabet="ab/ ", max_size=6)).map(lambda rel: f"@/{rel}")
JUNK_KEYS = st.one_of(st.sampled_from(["bogus", "", "M", "#m", "outdir x"]), st.text(max_size=4))
CONFIG_LINE = st.one_of(
    st.just("outdir").flatmap(lambda key: OUTDIR.map(lambda value: f"{key}={value}")),
    st.tuples(st.sampled_from(sorted(set(cli._SETTINGS) - {"outdir"})) | JUNK_KEYS,
              TEXT | OUTDIR).map("=".join),
)


@given(lines=st.lists(CONFIG_LINE, max_size=6),
       argv=st.sampled_from([("spectrum", "--g", "1/3", "--nmax", "2"), ("verify", "landau")]))
@settings(max_examples=50, deadline=None)
def test_config_files_exit_cleanly(lines, argv):
    with tempfile.TemporaryDirectory() as out:
        (Path(out) / "a-file").write_text("")
        cfg = Path(out) / "run.cfg"
        body = "\n".join(line.replace("=@/", f"={out}/", 1) for line in lines)
        # the first line keeps outputs in the temporary directory when no line names one
        cfg.write_text(f"outdir={out}\n{body}\n", encoding="utf-8")
        with mock.patch.dict(os.environ, {"RIAHO_CONFIG": str(cfg)}):
            assert main(list(argv)) in (0, 1, 2)
        for path in Path(out).rglob("*.json"):
            json.loads(path.read_text(), parse_constant=reject_constant)
