"""Exact interval-valence combinatorics of finite posets and Tamari lattices.

The package computes two weight enumerators of a finite poset (the
two-variable valence polynomial and the four-variable interval valence
polynomial), specializes them to the rotation lattices on plane binary
trees, and independently solves the corresponding catalytic functional
equations as exact truncated power series so that the two routes can be
cross-validated coefficient by coefficient.

``import intervalence`` loads none of the submodules.  The first access to
an exported name (PEP 562 module ``__getattr__``) imports its home module
and caches the value here, so ``from intervalence import tamari_lattice``
loads ``tamari`` and what it imports, and nothing else.
"""

import importlib

__version__ = "0.1.0"

# exported name -> home submodule; ``__all__`` is read off this table
_EXPORTS = {
    **dict.fromkeys(("MultiPoly", "SeriesT", "all_roots_real_negative",
                     "divided_difference", "sturm_sequence"), "polynomial"),
    "FinitePoset": "poset",
    **dict.fromkeys(("Mode", "SolverOutput", "SystemConfig",
                     "check_alternative_decomposition", "check_bridge_identity",
                     "residual", "solve"), "series"),
    **dict.fromkeys(("TamariLattice", "canopy", "composition", "decode", "encode",
                     "enumerate_trees", "interval_canopy_word", "interval_statistics",
                     "interval_valence_polynomial", "is_synchronous",
                     "left_border_factors", "reverse", "rotation_covers",
                     "tamari_lattice"), "tamari"),
    **dict.fromkeys(("CheckReport", "run_suites", "summarize_reports"), "verify"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f".{home}", __name__), name)
    elif name in _EXPORTS.values():
        # a home submodule, so ``intervalence.tamari`` works after a bare import
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
