"""jetsym: exact jet-space symmetry calculus for Burgers-type equations.

A zero-dependency symbolic engine over exact rational arithmetic.  It
constructs the complete generalized-symmetry families of the linear heat,
potential Burgers, and Burgers equations, verifies their commutation
relations and recursion-operator structure, maps characteristics along the
Hopf-Cole substitution chain, and solves the determining equation exactly
over bounded polynomial ansaetze.

Importing the package loads none of its modules: each exported name, and
each module that defines one, is imported on first use (PEP 562), so a
process that needs only some of them, such as one CLI command, compiles
only those modules.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "colemap": (
        "BareDependentVariable NotProjectable heat_to_potential potential_to_burgers "
        "w_jet_substitution"
    ),
    "detsolve": "Ansatz AnsatzTooLarge SolveReport solve_symmetries",
    "diffring": (
        "DiffPoly JetLimitError const exp_poly jet jet_poly par par_poly t_poly x_poly"
    ),
    "jetflow": (
        "BURGERS EQUATIONS HEAT POTBURGERS Characteristic EvolutionEquation "
        "invariance_residual"
    ),
    "opcalc": (
        "NotATotalDerivative OperatorExpr apply boost_op commutator_op dx_preimage "
        "euler_residual op_power op_scale operator_identity_probe potential_defect_op "
        "recursion_ops translation_op"
    ),
    "structure": (
        "LieGenerator LieMatch evolution_form heat_point_symmetries lie_correspondence "
        "structure_check"
    ),
    "symfam": "Family FamilyIndex commutator family_seed_chain q_char",
    "zeta": (
        "OrderExceeded ZetaBasis ZetaPoly build_zetas from_zeta_coordinates "
        "to_zeta_coordinates verify_zeta_identities"
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
