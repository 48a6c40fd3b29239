"""Run one ``qbpd`` command with spans around every public layer function.

    python3 bench/tracer.py SPANS_JSON QBPD_ARG...

Behaves like ``qbpd QBPD_ARG...`` (same stdout and exit code) and writes
the aggregated spans and counters to SPANS_JSON.  Nothing under ``src/``
changes: the wrappers are installed in this process only.  Modules import
each other's names directly (``from .perm import transition_setup``), so
every ``qbpd`` module namespace that holds a wrapped function is rebound.
Generator functions are left alone, since a span around one would only
time its creation.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys

from metrics import Tracer

LAYERS = ("perm", "polyring", "diagram", "moves", "oracle", "analysis", "cli")
ARITHMETIC = {"__add__", "__sub__", "__mul__", "__neg__"}

# Counters read from a span's result, keyed by span name.
COUNTS = {
    "analysis.cancellation_stats": lambda s: {
        "analysis.expanded_terms": s.qbpd_monomials,
        "analysis.surviving_terms": s.poly_monomials,
    },
    "moves.enumerate_unpaired": lambda ds: {"moves.enumerate_unpaired.diagrams": len(ds)},
    "moves.enumerate_qbpds": lambda ds: {"moves.enumerate_qbpds.diagrams": len(ds)},
    # Poly.counts() would also sum every coefficient; the length is enough.
    "polyring.Poly.__mul__": lambda p: {"polyring.Poly.__mul__.out_terms": len(p._terms)},
}


def _plain(fn) -> bool:
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)


def _wrap_class(tracer: Tracer, prefix: str, cls) -> None:
    for name, raw in list(vars(cls).items()):
        if name.startswith("_") and name not in ARITHMETIC:
            continue
        span = f"{prefix}.{cls.__name__}.{name}"
        if isinstance(raw, (classmethod, staticmethod)) and _plain(raw.__func__):
            setattr(cls, name, type(raw)(tracer.wrap(span, raw.__func__, COUNTS.get(span))))
        elif _plain(raw):
            setattr(cls, name, tracer.wrap(span, raw, COUNTS.get(span)))


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every measured layer."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"qbpd.{layer}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
            elif _plain(obj):
                span = f"{layer}.{name}"
                wrapped[obj] = tracer.wrap(span, obj, COUNTS.get(span))
    for module_name, module in list(sys.modules.items()):
        if module_name == "qbpd" or module_name.startswith("qbpd."):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["qbpd.cli"]
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
