"""pzeta: probabilistic zeta functions of finite groups.

Exact Dirichlet-polynomial arithmetic, subgroup lattices with Moebius
data for permutation groups, supplement zeta functions and minimal
odd supplement indices of PSL/PGL(2,q), and the symbolic finiteness
toolkit for products of chief-factor polynomials.
"""

from .dirichlet import (
    DirichletPolynomial,
    RationalSeries,
    TruncatedSeries,
    divide_exact,
    expand_rational,
    power_shift,
    prime_projection,
    truncated_product,
)
from .errors import (
    BudgetExceeded,
    EmptyInput,
    FactorNotUnital,
    HypothesisViolated,
    InvalidParameter,
    NonUnitDenominator,
    NotDivisible,
    NotNormal,
    OrderBoundExceeded,
    PzetaError,
    ZeroDivisor,
)
from .lattice import (
    Budget,
    ChiefStep,
    SubgroupLattice,
    all_chief_series_ids,
    chief_series_ids,
    chief_steps,
    factor_group,
    identify_characteristically_simple,
    subgroup_lattice,
)
from .permgroup import (
    AlmostSimpleSpec,
    PermGroup,
    Permutation,
    alternating,
    builtin_group,
    cyclic,
    dihedral,
    direct_product,
    klein_four,
    make_psl2,
    parse_group_file,
    quaternion8,
    symmetric,
)
from .rationality import (
    ArithmeticExponents,
    ConstantExponents,
    FactorDescriptor,
    FactorKind,
    GeometricExponents,
    LambdaPredicate,
    PrimeSupport,
    ReplayReport,
    SmlReport,
    WitnessExtraction,
    check_sml_conditions,
    cyclic_descriptor,
    descriptor_from_supplement_poly,
    extract_witness_product,
    index_primes,
    padic_valuation,
    prime_support,
    replay_finiteness_argument,
)
from .zeta import (
    ChiefFactorization,
    OddSupplementReport,
    WTableRow,
    ZetaReport,
    chief_factorization,
    generation_counts,
    minimal_odd_index_table,
    odd_supplement_indices,
    predicted_minimal_odd_index,
    probabilistic_zeta,
    supplement_zeta,
    zeta_from_lattice,
    zeta_report,
)

__version__ = "0.1.0"
