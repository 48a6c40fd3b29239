"""What importing the package and its command loads."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qbpd

# Every name ``qbpd`` exports.
EXPORTED = """
    CancellationStats Diagram Monomial Permutation Poly SweepSummary TileKind
    TransitionData WeightCells bwt cancellation_stats canonical_key
    column_enumerate diagram_from_text diagram_to_text divided_difference_chain
    domino_pairings double_schubert_defining embed enumerate_qbpds
    enumerate_symmetric_group enumerate_unpaired extract_permutation
    is_bruhat_cover is_cancellation_free is_classical_bpd is_quantum_lower
    length make_permutation monk_residual parse_permutation q_interval
    qbpd_polynomial quantum_double_schubert_defining
    quantum_double_schubert_transition reduced_word
    right_multiply_transposition rothe_diagram stats_for_group sweep
    transition_setup validate verify_transition weight_cells wt
""".split()


def loaded_after(statement: str, prefixes: tuple[str, ...]) -> list[str]:
    """The modules starting with ``prefixes`` loaded after ``statement``."""
    src = str(Path(qbpd.__file__).resolve().parent.parent)
    code = (
        f"import sys; {statement}; "
        f"print(' '.join(sorted(m for m in sys.modules if m.startswith({prefixes!r}))))"
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout.split()


def test_import_cli_loads_no_polynomial_code():
    out = loaded_after("import qbpd.cli", ("qbpd", "concurrent", "multiprocessing"))
    assert out == ["qbpd", "qbpd.cli", "qbpd.errors", "qbpd.perm"]


@pytest.mark.parametrize(
    "mode, loaded",
    [
        ("qbpd", ["qbpd.analysis", "qbpd.columns", "qbpd.diagram"]),
        ("oracle", ["qbpd.oracle"]),
        ("transition", ["qbpd.oracle"]),
    ],
)
def test_poly_loads_only_its_route(mode, loaded):
    statement = (
        "import os; from qbpd.cli import main; "
        f"main(['poly', '4231', '--mode', '{mode}', '--out', os.devnull])"
    )
    routes = ("qbpd.analysis", "qbpd.columns", "qbpd.diagram", "qbpd.oracle")
    assert loaded_after(statement, routes) == loaded


@pytest.mark.parametrize(
    "argv",
    [["--jobs", "1", "stats", "--n", "3"], ["stats", "--perm", "4231"]],
    ids=["group-one-job", "perm"],
)
def test_stats_loads_no_pool_or_oracle(argv):
    statement = f"from qbpd.cli import main; main({argv + ['--out', os.devnull]!r})"
    pool = ("concurrent", "multiprocessing")
    assert loaded_after(statement, (*pool, "qbpd.oracle")) == []


def test_import_analysis_loads_no_oracle():
    assert loaded_after("import qbpd.analysis", ("qbpd.oracle",)) == []


@pytest.mark.parametrize(
    "statement", ["import qbpd.cli", "import qbpd.analysis, qbpd.oracle"]
)
def test_import_loads_no_dataclasses_or_inspect(statement):
    # dataclasses loads inspect, and with it ast, dis and tokenize, on every request
    assert loaded_after(statement, ("dataclasses", "inspect")) == []


def test_every_exported_name_resolves():
    assert len(EXPORTED) == 45
    for name in EXPORTED:
        exec(f"from qbpd import {name}", {})
        assert name in qbpd.__all__
    assert qbpd.__version__ == "0.1.0"
    assert qbpd.polyring.Poly is qbpd.Poly


def test_move_lookup_pipe_records_and_embedding_are_not_exported():
    removed = """PipeStep PipeTrace RectMove apply_droop apply_lift embed_diagram
        restrict_diagram trace_pipes""".split()
    for name in removed:
        assert name not in qbpd.__all__
        with pytest.raises(AttributeError):
            getattr(qbpd, name)
    for name in ("TracingStuck", "NotRestrictable", "MoveRejected"):
        assert not hasattr(qbpd.errors, name)


def test_module_examples_pass():
    # __main__ is left out: importing it installs the command's SIGINT handler
    names = [m.name for m in pkgutil.iter_modules(qbpd.__path__)]
    results = {
        name: doctest.testmod(importlib.import_module(f"qbpd.{name}"))
        for name in names
        if name != "__main__"
    }
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert results["perm"].attempted == 4 and results["polyring"].attempted == 1
