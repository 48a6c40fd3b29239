"""Quantum bumpless pipe dreams and quantum double Schubert polynomials.

Exact enumeration of the diagrams of a permutation, from the column-state
graph and, as an independent check, by droop/lift move closure; their
signed binomial weight sum, a dynamic program over the same graph;
independent algebraic oracles for the same polynomials; and the
cancellation statistics of the formula.

The names below are resolved on first use (PEP 562), so importing one
submodule, as the ``qbpd`` command does, does not load the others.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "analysis": """CancellationStats SweepSummary WeightCells bwt
        cancellation_stats is_cancellation_free is_classical_bpd
        qbpd_polynomial stats_for_group sweep verify_transition weight_cells
        wt""",
    "diagram": """Diagram TileKind canonical_key diagram_from_text
        diagram_to_text domino_pairings extract_permutation rothe_diagram
        validate""",
    "columns": "column_enumerate",
    "moves": "enumerate_qbpds enumerate_unpaired",
    "oracle": """divided_difference_chain double_schubert_defining
        monk_residual q_interval quantum_double_schubert_defining
        quantum_double_schubert_transition""",
    "perm": """Permutation TransitionData embed enumerate_symmetric_group
        is_bruhat_cover is_quantum_lower length make_permutation
        parse_permutation reduced_word right_multiply_transposition
        transition_setup""",
    "polyring": "Monomial Poly",
}
_EXPORTS = {name: mod for mod, names in _NAMES.items() for name in names.split()}
_SUBMODULES = {*_NAMES, "cli", "errors", "render"}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
