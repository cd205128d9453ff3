"""Exact-arithmetic filtered Clifford supermodules and the graded
off-shell supersymmetry representations they correspond to."""

from types import ModuleType as _ModuleType

from .bifiltration import (
    BifilteredSupermodule,
    BiGradedRep,
    TwistedProduct,
    bideform,
    biquotient,
    canonical_biroundtrip_iso,
    check_bifiltered_module,
    check_twisted_tensor,
    tensor_module,
    total_module,
    twisted_tensor,
    verify_2d,
)
from .certificate import Certificate
from .clifford import CliffordAlgebra, CliffordElement
from .deformation import (
    FilteredIso,
    GradedSpace,
    OffShellRep,
    OnShellModule,
    canonical_roundtrip_iso,
    deform,
    enveloping_quotient_check,
    quotient_at,
    verify_offshell,
)
from .exactalg import Matrix, Subspace, kernel, rational, rref
from .graph import (
    AdinkraGraph,
    enumerate_heights,
    heights_from_sources,
    rebuild_filtration,
    source_set,
    to_dot,
    to_graph,
)
from .invariants import (
    ComparisonVerdict,
    InvariantReport,
    Summand,
    decompose,
    filtered_endomorphisms,
    filtration_search,
    gr_dimensions,
    invariant_equal,
    invariant_report,
    random_filtration,
    source_dimensions,
)
from .serialize import SerializeError, decode, dumps, encode, loads
from .supermodule import (
    CliffordSupermodule,
    SuperFiltration,
    check_filtration,
    check_supermodule,
    degree_filtration,
    direct_sum,
    direct_sum_filtration,
    exterior_module,
    hodge_filtration,
    irreducible_cl5,
    irreducible_module,
    trivial_filtration,
)

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
