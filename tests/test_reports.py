"""Check rows: the tolerance rule every numeric check uses, the table of check families and
the one constructor that builds each suite row from it."""
import json
import math

import numpy as np
import pytest

from riaho.cli import main
from riaho.reports import FAMILIES, CheckRow, _family, check


class TestWithin:
    def test_residual_at_tolerance_passes(self):
        row = CheckRow.within("c", "a = b", 1e-10, 1e-10)
        assert row.passed and row.status == "pass"

    def test_residual_above_tolerance_fails(self):
        assert not CheckRow.within("c", "a = b", 2e-10, 1e-10).passed

    @pytest.mark.parametrize("residual", [math.nan, np.float64("nan")])
    def test_nan_residual_fails(self, residual):
        row = CheckRow.within("c", "a = b", residual, 1e-10)
        assert row.passed is False
        assert math.isnan(row.residual)

    def test_zero_tolerance_demands_exact_zero(self):
        assert CheckRow.within("c", "a = b", 0.0, 0.0).passed
        assert not CheckRow.within("c", "a = b", 5e-324, 0.0).passed

    def test_residual_stored_as_python_float(self):
        row = CheckRow.within("c", "a = b", np.float64(3e-11), 1e-10, detail="d")
        assert type(row.residual) is float and type(row.passed) is bool
        assert row.to_dict() == {"check_id": "c", "identity": "a = b", "status": "pass",
                                 "residual": 3e-11, "elapsed": 0.0, "detail": "d"}


# each measured family's tolerance, as the literal its rows were built with before the table
MEASURED = {
    "closure": 1e-9, "integrate": 1e-6, "hidden-commutes": 0.0, "unitary-mode": 1e-10,
    "unitary-hamiltonian": 1e-10, "bridge-two-mode-H": 1e-10, "bridge-two-mode-iD": 1e-10,
    "bridge-two-mode-K": 1e-10, "proportionality": 1e-9, "reduced-constant": 1e-9,
    "overlap-identity": 1e-8, "coherent-eigenvalue-b1": 1e-10, "coherent-eigenvalue-b2": 1e-10,
    "coherent-evolution": 1e-10, "coherent-truncation": 1e-10, "coherent-rotation": 1e-12,
    "so11-quadrature-form": 1e-12, "so11-invariance": 0.0, "sl2-raise": 1e-12,
    "sl2-lower": 1e-12, "sl2-ladder-bracket": 1e-12, "diagonal-pair": 0.0,
    "signed-spectrum": 1e-12, "lissajous-closure": 1e-9,
}
# each exact family's residual on a pass: None, or 0.0 for the six that reported it so
EXACT = {
    "sp4": None, "casimir": None, "integral": None, "cbt-H": None, "cbt-iD0": None,
    "cbt-K0": None, "origin-flags": None, "cusp-flags": None, "orbits-match-degeneracy": None,
    "inverse-weierstrass": None, "boundary-landau": None, "boundary-critical": None,
    "rotating-frame": None,
    "bridge-one-mode-H": 0.0, "bridge-one-mode-iD": 0.0, "bridge-one-mode-K": 0.0,
    "rescale-canonical": 0.0, "composite-spectrum": 0.0, "roundtrip": 0.0,
}


class TestFamilies:
    def test_each_tolerance_and_exact_encoding_is_pinned(self):
        assert sorted(FAMILIES) == sorted([*MEASURED, *EXACT])
        assert {name: f.tol for name, f in FAMILIES.items() if f.tol is not None} == MEASURED
        assert {name: f.on_pass for name, f in FAMILIES.items() if f.tol is None} == EXACT
        assert all(type(tol) is float for tol in MEASURED.values())
        assert all(FAMILIES[name].on_pass is None for name in MEASURED)

    def test_verify_all_emits_exactly_the_families(self, tmp_path):
        assert main(["verify", "all", "--out", "all", "--outdir", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "all.json").read_text())["checks"]
        assert len(rows) == 170
        assert {_family(row["check_id"]) for row in rows} == set(FAMILIES)


class TestCheck:
    @pytest.mark.parametrize("check_id", ["no-such-family:x", "", "closure-x", "sp"])
    def test_id_of_no_family_raises(self, check_id):
        with pytest.raises(ValueError, match="is of no check family"):
            check(check_id, 0.0)

    @pytest.mark.parametrize("name", sorted(MEASURED))
    def test_measured_family_fails_just_above_its_tolerance(self, name):
        tol, fields = MEASURED[name], {"h": "H", "x": "X", "mode": 1, "sign": "+"}
        assert check(name, tol, **fields).passed
        above = check(name, tol * (1 + 1e-6) if tol else 5e-324, **fields)
        assert not above.passed and above.status == "fail"

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_exact_family_reports_its_encoding(self, name):
        fields = {"lhs": "a", "rhs": "b", "expected": [], "x": "L", "classes": "c",
                  "phase": "landau", "g": ""}
        passed, failed = check(name, True, "d", **fields), check(name, False, **fields)
        assert (passed.passed, passed.residual, passed.detail) == (True, EXACT[name], "d")
        assert (failed.passed, failed.residual, failed.status) == (False, None, "fail")

    def test_outcome_must_match_the_family_kind(self):
        with pytest.raises(ValueError, match="takes a bool"):
            check("bridge-one-mode-H", 0.0)
        with pytest.raises(ValueError, match="takes a bool"):
            check("bridge-one-mode-H", np.bool_(True))
        with pytest.raises(ValueError, match="takes a residual"):
            check("closure:orbits:a", True)

    def test_identity_is_filled_from_the_fields(self):
        row = check("hidden-commutes:g=1/3", np.float64(0.0), h="H_g", x="L+_12")
        assert (row.identity, row.residual, type(row.residual)) == (
            "[H_g, L+_12] = 0", 0.0, float)
        assert check("unitary-mode:a2-", 0.0, mode=2, sign="-").identity == (
            "U a2- U+ = e^{-i pi/4} b2-")
        assert check("coherent-truncation", 0.0).identity == (
            "retained expansion weight = 1 within 1e-10")
        assert check("rescale-canonical", True).identity == (
            "{x_i', p_j'} = delta_ij, {x', x'} = {p', p'} = 0")

    def test_missing_field_raises(self):
        with pytest.raises(ValueError, match="needs the field 'rhs'"):
            check("sp4:{J0,J+}", True, lhs="{J0,J+}")
