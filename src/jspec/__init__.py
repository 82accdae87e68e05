"""Exact joint spectra of projection tuples over Q(i, sqrt(d)).

`__all__` is every public name imported below; the submodules are left out.
"""

import types as _types

from jspec.exactla import (
    Matrix,
    automorphism_entrywise,
    gram_schmidt,
    hstack,
    matrix_from_json,
    matrix_to_json,
    projection_onto,
    vdot,
)
from jspec.lattice import (
    Projection,
    identity_projection,
    make_projection,
    projection_from_json,
    projection_to_json,
    rank_one,
    zero_projection,
)
from jspec.maps import (
    AntiUnitaryConjMap,
    InducedMap,
    MapForm,
    OrthogonalityError,
    ProjectionMap,
    UnitaryConjMap,
    apply_map,
    classify_map,
    extend_join,
    extend_sum,
    make_induced,
    make_unitary_conj,
    map_from_json,
    map_to_json,
    preserves_orthogonality,
    rank_one_image,
)
from jspec.polyalg import (
    MultiPoly,
    canonicalize,
    divides,
    exact_quotient,
    format_poly,
    gcd,
    parse_poly,
    squarefree_part,
)
from jspec.scalar import (
    ALL_AUTOMORPHISMS,
    Automorphism,
    FieldContext,
    FieldElem,
    ParseError,
    apply_automorphism,
    format_scalar,
    parse_scalar,
)
from jspec.spectrum import (
    JointSpectrum,
    PairFacts,
    RankOneClass,
    classify_rank_one_tuple,
    pair_facts,
    pencil_poly,
    tuple_from_json,
    tuple_to_json,
    zero_set_equal,
    zero_set_subset,
)
from jspec.verify import (
    TrialConfig,
    VerificationReport,
    Violation,
    Witness,
    check_det_automorphism,
    check_extension_consistency,
    check_map_morphism,
    check_map_preservation,
    check_pair_equivalences,
    check_rank_join_preservation,
    check_rank_one_classification,
    check_rank_one_map_k_preservation,
    check_small_rank_one_fullness,
    check_two_projection_sum_identity,
    find_spectrum_witness,
)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
