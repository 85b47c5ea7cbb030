"""Check rows: the tolerance rule every numeric check uses, the table of check families and
the one constructor that builds each suite row from it."""
import ast
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import riaho
from riaho.cli import main
from riaho.reports import FAMILIES, _family, check

# a measured family at tol 1e-10, and one at tol 0.0; neither identity takes a field
MEASURED_ID, ZERO_TOL_ID = "unitary-hamiltonian:g=0", "so11-invariance"


class TestTolerance:
    def test_residual_at_tolerance_passes(self):
        row = check(MEASURED_ID, 1e-10)
        assert row.passed and row.status == "pass"

    def test_next_float_above_tolerance_fails(self):
        assert not check(MEASURED_ID, np.nextafter(1e-10, 1)).passed

    @pytest.mark.parametrize("residual", [math.nan, np.float64("nan")])
    def test_nan_residual_fails(self, residual):
        row = check(MEASURED_ID, residual)
        assert row.passed is False
        assert math.isnan(row.residual)

    @pytest.mark.parametrize("check_id", [ZERO_TOL_ID, "hidden-commutes:g=3"])
    def test_zero_tolerance_demands_exact_zero(self, check_id):
        assert check(check_id, 0.0, h="H", x="X").passed
        assert not check(check_id, 5e-324, h="H", x="X").passed

    @pytest.mark.parametrize("residual, stored", [
        (np.float64(3e-11), 3e-11), (np.float32(2.0**-40), 2.0**-40),
        (Fraction(3, 10**11), 3e-11), (0, 0.0), (np.int64(0), 0.0)])
    def test_residual_stored_as_python_float(self, residual, stored):
        row = check(MEASURED_ID, residual, "d")
        assert type(row.residual) is float and type(row.passed) is bool
        assert row.to_dict() == {"check_id": MEASURED_ID, "identity": "U H_rni U+ = H_g",
                                 "status": "pass", "residual": stored, "elapsed": 0.0,
                                 "detail": "d"}


def _names_row(node):
    """Whether ``node`` is the name CheckRow, bare or as a module attribute."""
    return (isinstance(node, ast.Name) and node.id == "CheckRow"
            or isinstance(node, ast.Attribute) and node.attr == "CheckRow")


def _row_constructions(tree):
    """(enclosing function, line) of each call that builds a CheckRow: CheckRow(...) or
    module.CheckRow(...), a CheckRow classmethod, or cls(...) inside the class body."""
    found = []

    def walk(node, func, in_row_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name, in_row_class)
            elif isinstance(child, ast.ClassDef):
                walk(child, func, child.name == "CheckRow")
            else:
                if isinstance(child, ast.Call):
                    f = child.func
                    if (_names_row(f) or isinstance(f, ast.Attribute) and _names_row(f.value)
                            or in_row_class and isinstance(f, ast.Name) and f.id == "cls"):
                        found.append((func, child.lineno))
                walk(child, func, in_row_class)

    walk(tree, None, False)
    return found


def test_check_is_the_only_row_constructor():
    # a second constructor could build a row that passes by a rule FAMILIES does not hold
    root = Path(riaho.__file__).parent
    outside = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        name = path.relative_to(root).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert all(a.name != "CheckRow" or a.asname is None for a in node.names), name
        outside += [(name, func, line) for func, line in _row_constructions(tree)
                    if (name, func) != ("reports.py", "check")]
    assert outside == []


@pytest.mark.parametrize("source, found", [
    ("CheckRow('c', 'c = 0', True)", [(None, 1)]),
    ("def f():\n    return CheckRow('c', 'c = 0', True)", [("f", 2)]),
    ("def f():\n    return CheckRow.within('c', 'c = 0', 0.0, 1e-9)", [("f", 2)]),
    ("def f():\n    return reports.CheckRow('c', 'c = 0', True)", [("f", 2)]),
    ("def f():\n    return riaho.reports.CheckRow.within('c', 'c = 0', 0.0, 1e-9)", [("f", 2)]),
    ("class CheckRow:\n    @classmethod\n    def ok(cls):\n        return cls('c', 'c', True)",
     [("ok", 4)]),
    ("class Other:\n    @classmethod\n    def make(cls):\n        return cls()", []),
    ("def f(row):\n    return isinstance(row, CheckRow) and row.passed", []),
])
def test_each_way_to_build_a_row_is_found(source, found):
    # the walk above must see every construction form, or it passes on a second constructor
    assert _row_constructions(ast.parse(source)) == found


def _family_reads(tree) -> list:
    """(module-level name the statement assigns, or None, line) of each read of FAMILIES."""
    found = []
    for stmt in tree.body:
        assigned = (stmt.targets[0].id if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name) else None)
        found += [(assigned, node.lineno) for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and node.id == "FAMILIES"
                  or isinstance(node, ast.Attribute) and node.attr == "FAMILIES"]
    return found


# the one read of the table outside reports.py: the quadrature bound of a gate that refuses a
# dataset and builds no row
FAMILY_READS_ALLOWED = {("bridge.py", "_QUAD_TOL")}


def test_only_reports_reads_the_family_table():
    # a module that applies a family's tol itself decides a verdict beside check
    root = Path(riaho.__file__).parent
    outside = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if name != "reports.py":
            outside += [(name, assigned, line)
                        for assigned, line in _family_reads(ast.parse(path.read_text(), name))
                        if (name, assigned) not in FAMILY_READS_ALLOWED]
    assert outside == []


@pytest.mark.parametrize("source, found", [
    ("_QUAD_TOL = FAMILIES['overlap-identity'].tol", [("_QUAD_TOL", 1)]),
    ("def f(spread):\n    return spread <= FAMILIES['proportionality'].tol", [(None, 2)]),
    ("def f():\n    return reports.FAMILIES.get('closure')", [(None, 2)]),
    ("x, y = FAMILIES['a'], 1", [(None, 1)]),
    ("from .reports import FAMILIES, check", []),
])
def test_each_way_to_read_the_family_table_is_found(source, found):
    assert _family_reads(ast.parse(source)) == found


# each measured family's tolerance, as the literal its rows were built with before the table
MEASURED = {
    "closure": 1e-9, "integrate": 1e-6, "hidden-commutes": 0.0, "unitary-mode": 1e-10,
    "unitary-hamiltonian": 1e-10, "bridge-two-mode-H": 1e-10, "bridge-two-mode-iD": 1e-10,
    "bridge-two-mode-K": 1e-10, "proportionality": 1e-9, "reduced-constant": 1e-9,
    "overlap-identity": 1e-8, "coherent-eigenvalue-b1": 1e-10, "coherent-eigenvalue-b2": 1e-10,
    "coherent-evolution": 1e-10, "coherent-truncation": 1e-10, "coherent-rotation": 1e-12,
    "so11-quadrature-form": 1e-12, "so11-invariance": 0.0, "sl2-raise": 1e-12,
    "sl2-lower": 1e-12, "sl2-ladder-bracket": 1e-12,
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
        assert len(rows) == 169
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
