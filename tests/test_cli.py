"""Command-line interface: outputs, exit codes, config layering, reports."""
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
        assert config.tol_fock == 1e-12
        assert config.tol_quad == 1e-8
        assert config.tol_traj == 1e-6
        assert config.format == "csv"

    @pytest.mark.parametrize("kwargs", [
        {"truncation": 3},
        {"tol_fock": 0.0},
        {"tol_traj": -1e-6},
        {"m": 0.0},
        {"format": "xml"},
        # NaN passes every "<= 0" test, so finiteness is checked explicitly
        {"hbar": math.nan}, {"m": math.inf}, {"omega": math.nan},
        {"tol_fock": math.nan}, {"tol_quad": math.inf}, {"tol_traj": math.nan},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("argv", [
        ("verify", "aniso", "--tol-fock", "nan"),
        ("spectrum", "--g", "1/3", "--hbar", "nan"),
    ])
    def test_non_finite_flag_exits_2_without_output(self, tmp_path, argv):
        assert run(tmp_path, *argv) == 2
        assert not list(tmp_path.iterdir())

    def test_non_finite_config_file_value_exits_2(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol_quad=inf\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        assert run(tmp_path, "verify", "bridge") == 2
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
        assert run(tmp_path, "verify", "landau", "--truncation", "2") == 2

    def test_unknown_subcommand_exits_2(self, tmp_path):
        assert main(["no-such-command"]) == 2

    def test_config_file_that_is_not_utf8_is_named(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfeomega=2.0\n")
        monkeypatch.setenv("RIAHO_CONFIG", str(cfg))
        assert run(tmp_path, "verify", "landau") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read config file {cfg}")


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
    assert capsys.readouterr().err.splitlines() == [f"error: {name} must be finite"]
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

    @pytest.mark.parametrize("argv", [
        ("landau",),
        ("landau", "--omega-b", "1", "--k", "1"),
        ("landau", "--omega-b", "1"),
        ("landau", "--k", "1", "--mass", "1"),
        ("landau", "--k", "-1", "--mass", "1", "--omega-cap", "0"),
    ])
    def test_bad_inputs_exit_2(self, tmp_path, argv):
        assert run(tmp_path, *argv) == 2


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
    "landau": ({}, {"--omega-b": TEXT, "--lambda": TEXT}),
}
UNITS = {"--m": TEXT, "--omega": TEXT, "--hbar": TEXT}  # run configuration, on every command


@st.composite
def malformed_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    optional = optional | UNITS
    flags = [*required, *(f for f in optional if draw(st.booleans()))]
    return [command, *(f"{flag}={draw((required | optional)[flag])}" for flag in flags)]


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@given(argv=malformed_argv())
@settings(max_examples=50, deadline=None)
def test_malformed_arguments_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as out:
        assert run(Path(out), *argv) in (0, 1, 2)
        for path in Path(out).glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject_constant)


# RIAHO_CONFIG lines: known keys and junk keys with awkward values.  An outdir is always a
# path inside the example's temporary directory ("@" stands for it), so nothing is written
# elsewhere; "a-file" there is a regular file, so an outdir through it cannot be created.
OUTDIR = st.one_of(st.sampled_from(["", "new", "new/sub", "a-file", "a-file/sub"]),
                   st.text(alphabet="ab/ ", max_size=6)).map(lambda rel: f"@/{rel}")
JUNK_KEYS = st.one_of(st.sampled_from(["bogus", "", "M", "#m", "outdir x"]), st.text(max_size=4))
CONFIG_LINE = st.one_of(
    st.just("outdir").flatmap(lambda key: OUTDIR.map(lambda value: f"{key}={value}")),
    st.tuples(st.sampled_from(sorted(set(cli._CONFIG_CASTS) - {"outdir"})) | JUNK_KEYS,
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
