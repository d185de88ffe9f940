"""Exact integral-lattice and negative-Pell arithmetic for EPW sextics
and Hilbert squares of K3 surfaces.

The package mechanically re-derives, with arbitrary-precision integer
arithmetic only, every lattice-theoretic quantity in the story of double
EPW sextics birational to Hilbert squares of K3 surfaces: Beauville forms
and their reflections, discriminant obstructions, the negative Pell
necessary condition, and the full degree family d(n) = 8n^2 + 16n + 10.
"""

__version__ = "0.1.0"

from .errors import InvariantError  # noqa: F401
from .lattices import (  # noqa: F401
    Isometry,
    Lattice,
    Signature,
    direct_sum,
    discriminant,
    induced_gram,
    is_even,
    is_isometry,
    is_primitive,
    negated_reflection,
    orthogonal_complement,
    product,
    reflection,
    rescale,
    saturation,
    signature,
    sublattice_discriminant_test,
)
from .pell import (  # noqa: F401
    ContinuedFraction,
    DerivedSolution,
    PellSolution,
    cf_expansion,
    enumerate_negative,
    fundamental_negative,
    is_solvable_negative,
    negative_solutions,
    prime_criterion,
)
from .epwfamily import (  # noqa: F401
    FamilyRecord,
    OgradyCase,
    OgradyStatus,
    disc_obstruction,
    epw_involution,
    epw_top_intersection,
    family,
    fujiki_degree_to_bb,
    k3_embedding_sufficient,
    necessary_condition,
    ogrady_status,
    reflection_inequality,
)
from . import catalog  # noqa: F401
