"""Exact homological algebra for bound quiver algebras over prime fields.

Computes Hom/Ext tables, syzygies, approximations and stable-category data
for finite-dimensional bound quiver algebras, models finite extriangulated
contexts (module categories, stable categories of self-injective algebras,
extension-closed subcategories), and mechanically checks n-cotorsion pairs
and cluster-tilting subcategories, including exhaustive verification of
their equivalence on desk-scale categories.
"""

from .algebra import (
    BoundQuiverAlgebra,
    Quiver,
    AlgebraError,
    ParseError,
    parse_algebra,
    nakayama_cyclic,
)
from .modules import Representation, ModuleMap, direct_sum, hom_basis, kernel, cokernel
from .decompose import fingerprint, DecompositionError
from .homology import (
    projective_cover,
    injective_hull,
    syzygy,
    cosyzygy,
    ext_dim,
    approximation,
)
from .stable import cone, NotSelfInjectiveError
from .contexts import (
    Context,
    RunConfig,
    build_exact_context,
    build_stable_context,
    build_sub_context,
    is_extension_closed,
)
from .checkers import (
    Subcat,
    Verdict,
    orthogonal,
    resdim,
    EXCEEDS,
    check_n_cotorsion_side,
    check_n_cotorsion,
    check_cluster_tilting,
    enumerate_cluster_tilting,
    enumerate_cotorsion_diagonal,
    verify_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
