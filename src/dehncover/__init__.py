"""
dehncover: covering relations between Dehn surgeries on torus knots via
exact arithmetic on Seifert invariants and 2-orbifold covers, plus audits
of ingested hyperbolic cusp/volume data.

The hyperbolic audit loads on first use, through the module __getattr__
(PEP 562): reading dehncover.hyperbolic, or one of its names re-exported here
(CuspRecord, Filling, NormalizedCusp, audit_knot, degree2_h1_obstruction,
enumerate_short_slopes, normalize_cusp, normalized_cutoff, read_census,
short_slope_box, vcsc_length_bound), imports it.  So `import dehncover`
imports neither the audit nor fractions.
"""

from .core import (
    LensRegimeError,
    LensSpace,
    Orbifold2,
    SeifertInvariants,
    Slope,
    TorusKnot,
    euler_number,
    h1_order,
    is_loeschian,
    is_two_square,
    lens_covers,
    mirror,
    normalize,
    parse_seifert,
    sfs_equivalent,
    sfs_to_lens,
)
from .surgery import (
    SurgeryClassification,
    classify_surgery,
    find_surgery_slopes,
    surgery_seifert_invariants,
)
from .orbcover import (
    BudgetExceededError,
    DegreeSet,
    PartitionSystem,
    PermWitness,
    UNCONSTRAINED,
    classify_cover,
    partition_systems,
    perm_cover_oracle,
    riemann_hurwitz_degree,
)
from .sfscover import (
    CoverCertificate,
    CoverDecision,
    decide_cover,
    decide_cover_directed,
    decide_pair,
    fiberwise_lift,
    fiberwise_quotient,
    pullback,
    torus_main_fastpath,
)

_HYPERBOLIC_NAMES = frozenset((
    "CuspRecord", "Filling", "NormalizedCusp", "audit_knot", "degree2_h1_obstruction", "enumerate_short_slopes",
    "normalize_cusp", "normalized_cutoff", "read_census", "short_slope_box", "vcsc_length_bound"))

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "hyperbolic" or name in _HYPERBOLIC_NAMES:
        import importlib

        # also binds dehncover.hyperbolic, so later reads of it skip this hook
        hyperbolic = importlib.import_module(".hyperbolic", __name__)
        return hyperbolic if name == "hyperbolic" else getattr(hyperbolic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
