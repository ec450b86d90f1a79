"""jetsym: exact jet-space symmetry calculus for Burgers-type equations.

A zero-dependency symbolic engine over exact rational arithmetic.  It
constructs the complete generalized-symmetry families of the linear heat,
potential Burgers, and Burgers equations, verifies their commutation
relations and recursion-operator structure, maps characteristics along the
Hopf-Cole substitution chain, and solves the determining equation exactly
over bounded polynomial ansaetze.
"""

from .colemap import (
    BareDependentVariable,
    NotProjectable,
    heat_to_potential,
    hopf_cole_chain,
    potential_to_burgers,
    w_jet_substitution,
)
from .detsolve import (
    Ansatz,
    AnsatzTooLarge,
    LinearSystem,
    SolveReport,
    build_system,
    nullspace,
    solve_symmetries,
)
from .diffring import (
    DiffPoly,
    JetLimitError,
    const,
    exp_poly,
    jet,
    jet_poly,
    par,
    par_poly,
    t_poly,
    x_poly,
)
from .jetflow import (
    BURGERS,
    EQUATIONS,
    HEAT,
    POTBURGERS,
    Characteristic,
    EvolutionEquation,
    invariance_residual,
)
from .opcalc import (
    IntegrabilityCertificate,
    NotATotalDerivative,
    OperatorExpr,
    apply,
    boost_op,
    commutator_op,
    dx_preimage,
    euler_residual,
    identity_op,
    integrability_certificate,
    op_compose,
    op_power,
    op_scale,
    op_sum,
    operator_identity_probe,
    potential_defect_op,
    recursion_ops,
    translation_op,
)
from .symfam import (
    Family,
    FamilyIndex,
    LieGenerator,
    LieMatch,
    commutator,
    evolution_form,
    family_seed_chain,
    heat_point_symmetries,
    lie_correspondence,
    q_char,
    structure_check,
)
from .zeta import (
    OrderExceeded,
    ZetaBasis,
    ZetaPoly,
    build_zetas,
    from_zeta_coordinates,
    to_zeta_coordinates,
    verify_zeta_identities,
)

__version__ = "0.1.0"
