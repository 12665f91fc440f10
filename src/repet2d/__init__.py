"""Repetitiveness measures and compressed representations for 2D strings.

The package computes exact small-scale values of the classic
repetitiveness measures lifted to matrices — substring complexity
(delta), string attractors (gamma), straight-line grammars with and
without run-length rules (g, g_rl), bidirectional macro schemes (b) —
plus block trees, heavy-path direct access on grammars, Hilbert-style
linearizations, and for d-dimensional strings delta, factor counts,
grammars and text I/O.

Importing the package loads none of its submodules: each public name
(and each submodule, as ``repet2d.<submodule>``) is imported on first
access, so a caller pays only for the parts it uses.
"""

import importlib

__version__ = "0.1.0"

# every public name, listed under the submodule that defines it
_EXPORTS = {
    "budget": ("WorkBudget",),
    "core2d": (
        "Matrix2D",
        "concat_h",
        "concat_v",
        "distinct_factors",
        "factor_count",
        "format_matrix",
        "parse_matrix",
        "read_matrix",
        "submatrix",
        "write_matrix",
    ),
    "errors": ("Repet2dError",),
    "families": (
        "FAMILIES",
        "FamilySpec",
        "alt",
        "bk",
        "cmblocks",
        "debruijn1d",
        "diagpad",
        "ek",
        "identity",
        "small_instances",
        "staircase",
        "zeros",
    ),
    "measures": (
        "AttractorSet",
        "delta",
        "delta_square",
        "diagpad_attractor",
        "gamma_exact",
        "gamma_lower_bound_unique",
        "is_attractor",
    ),
    "grammar2d": (
        "Grammar2D",
        "build_bk_grammar",
        "build_ek_grammar",
        "build_zeros_rlslp",
        "expand",
        "format_grammar",
        "g_exact",
        "grammar_tree",
        "parse_grammar",
        "read_grammar",
        "validate_grammar",
        "write_grammar",
    ),
    "access2d": (
        "access",
        "access_many",
        "build_index",
        "full_scan",
        "hop_bound",
        "hop_bound_check",
    ),
    "macroscheme": (
        "MacroScheme2D",
        "Phrase",
        "b_exact",
        "decode",
        "format_scheme",
        "from_grammar",
        "identity_scheme",
        "parse_scheme",
        "read_scheme",
        "unique_square_certificate",
        "validate_scheme",
        "write_scheme",
    ),
    "blocktree2d": ("BlockTree", "build_blocktree", "count_pruned", "node_count"),
    "linearize": (
        "ek_rlin_attractor",
        "onerun_certificate",
        "phlin",
        "rlin",
        "scan",
        "scan_coords",
    ),
    "multidim": (
        "GrammarNd",
        "NdString",
        "bdk",
        "build_bdk_grammar",
        "concat_axis",
        "delta_nd",
        "expand_nd",
        "factor_count_nd",
        "to_2d",
        "to_nd",
        "validate_nd",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """A public name from its submodule, or a submodule, imported now."""
    home = _HOME.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
