"""Exact integral-lattice and negative-Pell arithmetic for EPW sextics
and Hilbert squares of K3 surfaces.

The package mechanically re-derives, with arbitrary-precision integer
arithmetic only, every lattice-theoretic quantity in the story of double
EPW sextics birational to Hilbert squares of K3 surfaces: Beauville forms
and their reflections, discriminant obstructions, the negative Pell
necessary condition, and the full degree family d(n) = 8n^2 + 16n + 10.

Only ``__version__`` and ``InvariantError`` are bound at import. Every
other public name is re-exported lazily (PEP 562): ``_EXPORTS`` maps it to
the submodule that defines it, and the first access (``epwlat.Lattice``,
``from epwlat import family``) imports that submodule and returns its own
object. The submodules ``catalog``, ``epwfamily``, ``errors``, ``intmat``,
``lattices`` and ``pell`` resolve the same way, so ``import epwlat``, and
``import epwlat.cli`` for ``pell``, load no lattice code until it is used.
"""

import importlib

from .errors import InvariantError

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(
        ("Isometry", "Lattice", "Signature", "direct_sum", "discriminant",
         "induced_gram", "is_even", "is_isometry", "is_primitive",
         "negated_reflection", "orthogonal_complement", "product", "reflection",
         "rescale", "saturation", "signature", "sublattice_discriminant_test"),
        "lattices"),
    **dict.fromkeys(
        ("ContinuedFraction", "DerivedSolution", "PellSolution", "cf_expansion",
         "enumerate_negative", "fundamental_negative", "is_solvable_negative",
         "negative_solutions", "prime_criterion"),
        "pell"),
    **dict.fromkeys(
        ("FamilyRecord", "OgradyCase", "OgradyStatus", "disc_obstruction",
         "epw_involution", "epw_top_intersection", "family", "fujiki_degree_to_bb",
         "k3_embedding_sufficient", "necessary_condition", "ogrady_status",
         "reflection_inequality"),
        "epwfamily"),
}
_SUBMODULES = ("catalog", "epwfamily", "errors", "intmat", "lattices", "pell")

__all__ = ["InvariantError", *_EXPORTS, *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
