"""Finite-field matroid toolkit.

Exact GF(q) arithmetic, represented matroids with girth/duality/minor
search, the basis-indexed set system with its shatter and separation
analyses, and the short-circuit dichotomy harness.
"""

from .gf import FieldSpec, field_from_order
from .gfmatrix import (
    GFMatrix,
    GfmParseError,
    NotABasisError,
    StandardForm,
    parse_gfm,
    format_gfm,
    rref,
    standard_form,
)
from .matroid import (
    NoCircuitError,
    RepMatroid,
    TooLargeError,
    UnknownLabelError,
    bases,
    circuit_of_dependent,
    cosimple_certificate,
    dual,
    girth,
    has_minor,
    is_circuit,
    is_cosimple,
    is_isomorphic,
    matroid_from_gfm,
    matroid_to_gfm,
    minor,
    rank_table,
    sample_bases,
    simplify,
    subset_rank,
)
from .setsystem import (
    ChainCheck,
    InsufficientFamilyError,
    SeparationReport,
    SetSystem,
    ShatterResult,
    build_set_system,
    canonical_system,
    claim_chain_check,
    greedy_delta_packing,
    hamming_distance,
    separation,
    shatter,
    sym_diff_size,
    trace_count,
)
from .generators import (
    Graph,
    clique,
    complete_graph,
    format_graph,
    from_id,
    graphic,
    named_graph,
    named_graph_info,
    parse_graph,
    projective_geometry,
    random_matroid,
    split_field_suffix,
    uniform,
)
from .pipeline import (
    DensityRatio,
    DichotomyReport,
    MinorFinding,
    NotCosimpleError,
    ShortCircuitStats,
    density_ratio,
    find_short_circuit,
    packing_ratios,
    verify_dichotomy,
)

__version__ = "0.1.0"
