"""Every parameter of riaho's public surface follows an argument rule.

The census walks ``__all__`` of every riaho module that defines one and takes each public
function, each class constructor and each public method, classmethod or staticmethod.  A
re-export is counted once, by ``__module__`` and ``__qualname__``.  Each parameter is named
``"<module>.<qualname>:<parameter>"``, the module relative to the riaho package, e.g.
``"fockeng.ladder:mode"``, and must be one of:

* the target of a row of ``test_int_args.ENTRY_POINTS``, ``test_real_args.ENTRY_POINTS``,
  ``test_real_args.EXACT_ONLY``, ``test_real_args.COMPLEX_ENTRY_POINTS`` or
  ``test_choice_args.ENTRY_POINTS``, which feed it bad values and expect a ValueError naming it;
* annotated with a riaho type (``Coupling``, ``FockBasis | None``, ...), which checks itself;
* listed in ``EXEMPT`` under a one-line reason.  A term map, state pool or evaluation point
  whose reason says its container is checked has ``CHECKED_SHAPES`` rows, which feed it a
  wrong container and expect the ValueError naming it.

A scalar int- or real-valued parameter, and a name from a fixed set, gets a row, not an
exemption.  Every target and every exemption must name a live public parameter, so deleting or
renaming one forces its entries out.
"""
import importlib
import inspect
import pkgutil
import sys

import pytest

import riaho
import test_choice_args
import test_int_args
import test_real_args
from riaho.bridge import ZPolynomial
from riaho.cli import RunConfig
from riaho.fockeng import ladder_orbits, level_sets
from riaho.phasealg import CANONICAL, CIRCULAR, PhasePoly

MODULES = [module for info in pkgutil.walk_packages(riaho.__path__, "riaho.")
           for module in [importlib.import_module(info.name)] if hasattr(module, "__all__")]
MODULES.insert(0, riaho)

EXEMPT = {
    "report text: check ids, identities, details and suite names, and rows of a report": (
        "reports.CheckRow:check_id", "reports.CheckRow:identity", "reports.CheckRow:detail",
        "reports.check:check_id", "reports.check:detail",
        "reports.check:fields",
        "reports.VerificationReport:suite", "reports.VerificationReport:rows",
        "reports.VerificationReport.extend:rows",
    ),
    "result record or check outcome: riaho fills it from inputs it has checked": (
        "reports.CheckRow:passed", "reports.CheckRow:residual", "reports.CheckRow:elapsed",
        "fockeng.DegeneracyClass:energy", "fockeng.DegeneracyClass:states",
        "fockeng.DegeneracyClass:class_id", "fockeng.DegeneracyClass:complete",
        "aniso.RescaleMap:sigma", "aniso.RescaleMap:weight_sq",
        "bridge.ProportionalityReport:n1", "bridge.ProportionalityReport:n2",
        "bridge.ProportionalityReport:constant", "bridge.ProportionalityReport:reduced_constant",
        "bridge.ProportionalityReport:spread", "bridge.ProportionalityReport:points_used",
        "bridge.ProportionalityReport:passed",
        "bridge.WeierstrassReport:n", "bridge.WeierstrassReport:series",
        "bridge.WeierstrassReport:scaled_hermite", "bridge.WeierstrassReport:passed",
        "landau.PhaseResult:phase", "landau.PhaseResult:omega", "landau.PhaseResult:g",
        "phasealg.poly.CartanForm:diagonal",
        "phasealg.verify.BracketCheck:identity_name", "phasealg.verify.BracketCheck:rhs",
        "phasealg.verify.BracketCheck:residual", "phasealg.verify.BracketCheck:passed",
    ),
    "measured residual (a nan residual fails the row by design), or an exact family's bool, "
    "else ValueError": (
        "reports.check:outcome",
    ),
    "`Coupling.coerce`: a Coupling, or a g that `Coupling` checks": (
        "coupling.Coupling.coerce:value",
        "aniso.rescale_map:coupling", "aniso.rescale_canonical_check:coupling",
        "aniso.composite_spectrum_check:coupling",
        "classdyn.hamiltonian_flow_rhs:coupling", "classdyn.hamiltonian_value:coupling",
        "classdyn.integrate:coupling", "classdyn.closure_turns:coupling",
        "classdyn.closure_period:coupling", "landau.g_to_landau:coupling",
        "phasealg.catalog.catalog:coupling", "phasealg.catalog.generator:coupling",
        "phasealg.catalog.hamiltonian:coupling", "phasealg.catalog.hidden_integral:coupling",
        "phasealg.catalog.is_true_integral:coupling",
        "phasealg.verify.verify_casimirs:coupling",
        "phasealg.verify.verify_dynamical_integrals:coupling",
        "phasealg.verify.verify_sp4_table:coupling",
    ),
    "`Params.coerce`: None, a Params, or an (m, omega) pair that `Params` checks": (
        "phasealg.poly.Params.coerce:value", "phasealg.poly.PhasePoly:params",
        "phasealg.poly.PhasePoly.zero:params", "phasealg.poly.PhasePoly.constant:params",
        "phasealg.poly.PhasePoly.variable:params",
        "phasealg.catalog.angular_momentum:params", "phasealg.catalog.catalog:params",
        "phasealg.catalog.generator:params", "phasealg.catalog.hamiltonian:params",
        "phasealg.catalog.hidden_integral:params",
        "phasealg.cbt.conformal_k0:params", "phasealg.cbt.dilation_id0:params",
        "phasealg.cbt.free_hamiltonian:params",
    ),
    "run config: `cli.RunConfig` checks its fields": (
        "fockeng.suite_fock:config", "aniso.suite_aniso:config", "bridge.suite_bridge:config",
        "classdyn.suite_classical:config", "landau.suite_landau:config",
        "phasealg.verify.suite_algebra:config",
    ),
    "flag: a bool, else ValueError": (
        "coupling.Coupling:isotropic_mink",
    ),
    "numpy data (operator matrices, phase-space vectors): used as given, as array times are": (
        "fockeng.InteriorMask.restrict_columns:matrix", "fockeng.commutator:a",
        "fockeng.commutator:b", "fockeng.operator_norm:matrix", "classdyn.hamiltonian_flow_rhs:state",
        "classdyn.hamiltonian_value:state", "classdyn.integrate:state0",
    ),
    "state pool: an iterable of (n1, n2) pairs, else ValueError (a `CHECKED_SHAPES` row)": (
        "fockeng.ladder_orbits:pool", "fockeng.level_sets:pool",
    ),
    "callbacks of the grouping and sampling helpers: called as given": (
        "fockeng.level_sets:energy",
        "bridge.grid_proportionality:phi", "bridge.grid_proportionality:psi",
    ),
    "ZPolynomial term map: a dict, else ValueError (a `CHECKED_SHAPES` row), then int "
    "exponents >= 0 and finite complex coefficients, checked per term": (
        "bridge.ZPolynomial:terms",
    ),
    "ZPolynomial coefficients and factors: finite complex numbers, checked per term": (
        "bridge.ZPolynomial.monomial:coeff",
        "bridge.ZPolynomial.scale:factor", "bridge.WaveState.scale:factor",
        "aniso.SeparableState.scale:factor",
    ),
    "per-sample complex value (envelope exponents, evaluation points): used as given": (
        "bridge.WaveState:exp_zzbar", "bridge.WaveState:exp_z", "bridge.WaveState:exp_zbar",
        "bridge.WaveState:exp_const", "bridge.ZPolynomial.at:u", "bridge.ZPolynomial.at:v",
    ),
    "evaluation point: a value for each of the basis's four variables, else ValueError naming "
    "the missing one (a `CHECKED_SHAPES` row); each value used as a complex": (
        "phasealg.poly.PhasePoly.evaluate:point",
    ),
    "exact term map: None or a dict, else ValueError (a `CHECKED_SHAPES` row), then int "
    "exponents and an int or Fraction tag, checked per key by PhasePoly": (
        "phasealg.poly.PhasePoly:terms",
    ),
    "the argument rules themselves: the value they check and how they report it": (
        "phasealg.exact.coerce_real:value", "phasealg.exact.coerce_real:name",
        "phasealg.exact.require_choice:value", "phasealg.exact.require_choice:name",
        "phasealg.exact.require_choice:choices",
        "phasealg.exact.require_complex:value", "phasealg.exact.require_complex:name",
        "phasealg.exact.require_int:value", "phasealg.exact.require_int:name",
        "phasealg.exact.require_int:lo", "phasealg.exact.require_int:hi",
        "phasealg.exact.require_real:value", "phasealg.exact.require_real:name",
        "phasealg.exact.require_real:positive",
        "phasealg.exact.to_float:value", "phasealg.exact.to_float:name",
    ),
}
EXEMPTIONS = [key for keys in EXEMPT.values() for key in keys]
# exemptions whose container is checked: (parameter, call with a wrong container, message)
CHECKED_SHAPES = [
    ("phasealg.poly.PhasePoly:terms", lambda: PhasePoly(CANONICAL, [1, 2]),
     "terms [1, 2] is not a dict"),
    ("phasealg.poly.PhasePoly:terms", lambda: PhasePoly(CANONICAL, ((1, 0, 0, 0), 1)),
     "terms ((1, 0, 0, 0), 1) is not a dict"),
    ("bridge.ZPolynomial:terms", lambda: ZPolynomial([1]), "terms [1] is not a dict"),
    ("bridge.ZPolynomial:terms", lambda: ZPolynomial("ab"), "terms 'ab' is not a dict"),
    ("fockeng.ladder_orbits:pool", lambda: ladder_orbits(5, (1, -1)),
     "pool 5 is not an iterable of (n1, n2) states"),
    ("fockeng.ladder_orbits:pool", lambda: ladder_orbits([(0, 1, 2)], (1, -1)),
     "pool [(0, 1, 2)] is not an iterable of (n1, n2) states"),
    ("fockeng.level_sets:pool", lambda: level_sets([3], lambda n1, n2: 0),
     "pool [3] is not an iterable of (n1, n2) states"),
    ("phasealg.poly.PhasePoly.evaluate:point",
     lambda: PhasePoly.variable("x1", CANONICAL).evaluate({"x1": 1}),
     "point {'x1': 1} gives no value for variable 'x2'"),
    ("phasealg.poly.PhasePoly.evaluate:point",
     lambda: PhasePoly.variable("b1+", CIRCULAR).evaluate({"b1+": 1, "b1-": 1, "b2-": 1}),
     "point {'b1+': 1, 'b1-': 1, 'b2-': 1} gives no value for variable 'b2+'"),
]
TARGETS = {row[0] for row in (*test_int_args.ENTRY_POINTS, *test_real_args.ENTRY_POINTS,
                               *test_real_args.EXACT_ONLY, *test_real_args.COMPLEX_ENTRY_POINTS,
                               *test_choice_args.ENTRY_POINTS)}
# row targets outside the census: the run config of ``cli`` (which has no ``__all__``) and an
# operator method
BEYOND_CENSUS = {"cli.RunConfig": RunConfig, "phasealg.poly.PhasePoly.__pow__": PhasePoly.__pow__}


def _callables(obj):
    """Pairs (object that names it, callable whose signature lists it) for one name of
    ``__all__``: a function, or a class's constructor and its public methods."""
    if not inspect.isclass(obj):
        return [(obj, obj)] if callable(obj) else []
    out = [(obj, obj)]
    for name, member in vars(obj).items():
        function = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
        if not name.startswith("_") and inspect.isfunction(function):
            out.append((function, getattr(obj, name)))
    return out


def _is_riaho_type(annotation, module) -> bool:
    """Whether every part of an annotation other than None names a riaho class."""
    if isinstance(annotation, str):  # riaho modules postpone their annotations
        kinds = [getattr(module, part.strip(), None)
                 for part in annotation.split("|") if part.strip() != "None"]
    else:
        kinds = [annotation]
    return bool(kinds) and all(
        inspect.isclass(k) and k.__module__.split(".")[0] == "riaho" for k in kinds)


def _census():
    """{parameter key: is annotated with a riaho type} over the whole public surface."""
    seen, params = set(), {}
    for module in MODULES:
        for owner, call in (pair for name in module.__all__
                            for pair in _callables(getattr(module, name))):
            if (owner.__module__, owner.__qualname__) in seen:
                continue
            seen.add((owner.__module__, owner.__qualname__))
            path = f"{owner.__module__.removeprefix('riaho.')}.{owner.__qualname__}"
            for param in inspect.signature(call).parameters.values():
                if param.name not in ("self", "cls"):
                    params[f"{path}:{param.name}"] = _is_riaho_type(
                        param.annotation, sys.modules[owner.__module__])
    return params


CENSUS = _census()


def test_census_walks_every_public_module():
    assert [m.__name__ for m in MODULES] == [
        "riaho", "riaho.aniso", "riaho.bridge", "riaho.classdyn", "riaho.coupling",
        "riaho.fockeng", "riaho.landau", "riaho.phasealg", "riaho.phasealg.catalog",
        "riaho.phasealg.cbt", "riaho.phasealg.exact", "riaho.phasealg.poly",
        "riaho.phasealg.verify", "riaho.reports"]


def test_every_public_parameter_follows_a_rule():
    uncovered = [key for key, typed in CENSUS.items()
                 if not typed and key not in TARGETS and key not in EXEMPTIONS]
    assert uncovered == []


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_row_target_is_a_live_public_parameter(target):
    path, param = target.split(":")
    assert target in CENSUS or (
        path in BEYOND_CENSUS and param in inspect.signature(BEYOND_CENSUS[path]).parameters)


@pytest.mark.parametrize("key", EXEMPTIONS)
def test_exemption_names_a_parameter_without_another_rule(key):
    assert key in CENSUS, "not a public parameter"
    assert not CENSUS[key], "annotated with a riaho type"
    assert key not in TARGETS, "a row already checks it"
    assert EXEMPTIONS.count(key) == 1, "listed twice"


@pytest.mark.parametrize("key, call, message", CHECKED_SHAPES,
                         ids=[f"{row[0]}#{i}" for i, row in enumerate(CHECKED_SHAPES)])
def test_checked_exemption_refuses_a_wrong_container(key, call, message):
    # these raised AttributeError, TypeError or KeyError before
    assert key in EXEMPTIONS
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
