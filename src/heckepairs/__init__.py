"""Exact computations on Hecke pairs: double cosets, convolution algebras,
regular-representation norm estimates, and rapid-decay diagnostics.
"""

from .algebra import (
    HeckeElement,
    L2Vector,
    NormsReport,
    QQi,
    apply_regular_rep,
    convolve,
    l1_norm,
    l2_norm_sq,
    norms,
)
from .cosets import (
    BallIndex,
    CosetKey,
    DoubleCosetKey,
    PairBall,
    coset_key,
    decompose_double_coset,
    degree,
    double_key,
    enumerate_ball,
    reachable_coset_ball,
)
from .diagnostics import (
    DegreeFit,
    RDReport,
    TransferReport,
    degree_growth_fit,
    fit_power_law,
    haagerup_scan_exact,
    random_hecke_element,
    random_l2_vector,
    scan_csv_rows,
    spawn_rng,
    transfer_check,
)
from .errors import (
    BackendMismatchError,
    BudgetExceededError,
    ConfigError,
    ConvolutionAuditError,
    HeckeError,
    InfiniteSubgroupError,
    ModeMismatchError,
    PairSanityError,
    UnsupportedLengthError,
)
from .groups import (
    AxbElement,
    DihedralElement,
    IntegerElement,
    LengthFunction,
    LengthReport,
    MatrixElement,
    SemidirectElement,
    dihedral_abs_length,
    validate_length,
)
from .jolissaint import (
    NuResult,
    RhoResult,
    SubmultReport,
    corner_seminorm,
    jolissaint_seminorm,
    submultiplicativity_check,
    vanishing_threshold,
)
from .operators import (
    ActionTable,
    NormBracket,
    block_operator_norm,
    norm_lower,
    norm_upper,
    top_singular_value,
)
from .pairs import HeckePair, build_pair, catalog_list

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
