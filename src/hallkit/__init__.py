"""Hall polynomials of finite abelian p-groups via Klein tableaux.

The symbolic layer (partitions, tableaux, factored group orders, the
Hall-polynomial sum-product formula) is exact; the oracle layer checks
it against brute-force enumeration over concrete small p-groups.
"""

from .errors import (
    CapExceeded,
    EntryTooLarge,
    HallkitError,
    NoRefinement,
    NonIntegral,
    NonPolynomial,
    NonUniqueMaxDegree,
    RangeError,
)
from .hall import (
    HallBreakdown,
    dominant_refinement,
    expected_degree,
    hall_multiplicity,
    hall_multiplicity_factored,
    hall_polynomial,
    lr_multiplicity,
)
from .partitions import (
    Partition,
    conjugate,
    is_horizontal_strip,
    moment,
    partition,
    partitions_of,
    row_length,
)
from .qforms import QOrderFactored, QPolynomial, evaluate, gl_order
from .s2cat import (
    Bipicket,
    Indecomposable,
    Picket,
    S2Object,
    aut_order,
    aut_order_module,
    bipicket,
    hom_len_indec,
    hom_len_obj,
    hom_len_tableau,
    object_of_tableau,
    parse_object,
    tableau_of_object,
)
from .tableaux import (
    KleinTableau,
    LRTableau,
    direct_sum_tableau,
    enumerate_klein,
    enumerate_klein_refinements,
    enumerate_lr,
    restrict,
    tableau_type,
    validate_klein,
    validate_lr,
)
from .embeddings import (
    AmbientModule,
    Embedding,
    bipicket_embedding,
    direct_sum,
    klein_tableau,
    lift,
    lr_tableau,
    picket_embedding,
    random_embedding,
    realize,
    reduce,
    subfactor,
    truncate,
)
from . import oracle

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
