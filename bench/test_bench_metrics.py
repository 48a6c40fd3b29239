"""Tests of the benchmark's own metric code, on synthetic timings and outputs."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

import metrics
import run

sys.path.insert(0, str(run.SRC))


def test_tail_rank_keeps_ten_samples_beyond():
    assert metrics.tail_rank(11) == 0
    assert metrics.tail_rank(20) == 9
    assert metrics.tail_rank(100) == 89
    # Too few samples for any percentile with ten beyond: the maximum.
    assert metrics.tail_rank(10) == 9
    assert metrics.tail_rank(1) == 0
    with pytest.raises(ValueError):
        metrics.tail_rank(0)


def test_latency_summary_reports_rank_and_count():
    samples = [float(i) for i in range(100, 0, -1)]  # 1..100, unsorted
    summary = metrics.latency_summary(samples)
    assert summary["p50"] == 50.5
    assert summary["tail"] == 90.0  # 91..100 lie beyond it
    assert summary["tail_percentile"] == 90.0
    assert summary["samples"] == 100


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds mid [2, 7], which holds leaf [3, 4]; then leaf [8, 9].
    tracer = metrics.Tracer(clock=FakeClock([0, 2, 3, 4, 7, 8, 9, 10]))
    leaf = tracer.wrap("m.leaf", lambda: None)
    mid = tracer.wrap("m.mid", lambda: leaf())

    def body():
        mid()
        leaf()

    tracer.wrap("m.outer", body)()
    spans = tracer.to_json()["spans"]
    assert spans["m.outer"] == {"calls": 1, "total_s": 10, "self_s": 10 - 5 - 1}
    assert spans["m.mid"] == {"calls": 1, "total_s": 5, "self_s": 4}
    assert spans["m.leaf"] == {"calls": 2, "total_s": 2, "self_s": 2}


def test_span_closes_when_the_call_raises():
    tracer = metrics.Tracer(clock=FakeClock([0, 1, 3, 5]))

    def fail():
        raise KeyError("x")

    inner = tracer.wrap("m.inner", fail)

    def outer():
        with pytest.raises(KeyError):
            inner()

    tracer.wrap("m.outer", outer)()
    spans = tracer.to_json()["spans"]
    assert spans["m.inner"]["self_s"] == 2
    assert spans["m.outer"]["self_s"] == 3


def test_counters_and_layer_metrics_from_merged_traces():
    tracer = metrics.Tracer(clock=FakeClock(range(100)))
    stats = tracer.wrap("analysis.cancellation_stats", lambda e, s: (e, s),
                        count=lambda r: {"analysis.expanded_terms": r[0], "analysis.surviving_terms": r[1]})
    stats(10, 4)
    stats(30, 6)
    one = tracer.to_json()
    merged = metrics.merge_traces([one, one])
    values = metrics.layer_metrics(merged, [
        "analysis.cancellation_stats.calls",
        "analysis.cancellation_stats.self_s",
        "analysis.self_s",
        "analysis.expanded_terms",
        "analysis.useful_ratio",
        "polyring.Poly.__mul__.calls",
        "polyring.self_s",
    ])
    assert values["analysis.cancellation_stats.calls"] == 4
    assert values["analysis.cancellation_stats.self_s"] == 4  # one tick per call
    assert values["analysis.self_s"] == 4
    assert values["analysis.expanded_terms"] == 80
    assert values["analysis.useful_ratio"] == 20 / 80
    assert values["polyring.Poly.__mul__.calls"] == 0
    assert values["polyring.self_s"] == 0


def test_request_time_is_its_median_over_passes():
    workload = poly_workload()
    passes = []
    for walls in ([1.0, 2.0, 9.0], [1.2, 8.0, 3.0], [7.0, 2.2, 3.2]):
        samples = [run.Sample((0, i), m, w, w) for i, (m, w) in enumerate(zip(run.MODES, walls))]
        passes.append(run.PassResult(samples=samples, attempted=3))
    values, notes = run.end_to_end(workload, passes, setup_s=0.1)
    assert values["wall_s"] == pytest.approx(1.2 + 2.2 + 3.2)
    assert values["req_tail_s"] == 9.0  # 9 samples: too few, so the maximum
    assert "req_tail_s is p100.0 of 9 samples" in notes


class StubRunner:
    """Stands in for run.Runner: serves canned (exit code, stdout) replies."""

    def __init__(self, work: Path, replies):
        self.work = work
        self.replies = iter(replies)

    def run(self, argv, out_path):
        code, stdout = next(self.replies)
        out_path.write_bytes(stdout)
        return run.Outcome(wall=0.5, cpu=0.25, code=code, maxrss_kb=2048, timed_out=False)


def poly_workload():
    requests = [run.Request(("poly", "4213", "--mode", m), m) for m in run.MODES]
    return run.Workload([run.Job(requests, run.check_poly, {"perms": 1, "diagrams": 5, "terms": 9})])


def test_agreeing_outputs_do_not_fail(tmp_path):
    workload = poly_workload()
    result = run.run_pass(workload, StubRunner(tmp_path, [(0, b"x1 - y1\n")] * 3), {}, False)
    assert (result.attempted, result.failed) == (3, 0)
    values, _ = run.end_to_end(workload, [result], setup_s=0.1)
    assert values["wall_s"] == 1.5
    assert values["perms_per_s"] == 1 / 1.5
    assert values["parallel_efficiency"] == 0.5


def test_tampered_output_raises_failed_frac(tmp_path):
    workload = poly_workload()
    replies = [(0, b"x1 - y1\n"), (0, b"x1 - y1\n"), (0, b"x1 - y2\n")]
    result = run.run_pass(workload, StubRunner(tmp_path, replies), {}, False)
    assert metrics.failed_fraction(result.attempted, result.failed) == 1.0
    values, notes = run.end_to_end(workload, [result], setup_s=0.1)
    assert values["perms_per_s"] == 0
    assert "failed_frac = 1.0 (3/3)" in notes


def test_nonzero_exit_raises_failed_frac(tmp_path):
    replies = [(0, b"x1 - y1\n"), (1, b"x1 - y1\n"), (0, b"x1 - y1\n")]
    result = run.run_pass(poly_workload(), StubRunner(tmp_path, replies), {}, False)
    assert metrics.failed_fraction(result.attempted, result.failed) == 1.0


def test_check_row_rejects_a_tampered_count():
    ref = [505, 549, 69]
    good = b'{"perm": "1264357", "poly_monomials": 505, "qbpd_monomials": 549, "cancellations": 22, "qbpd_count": 69}'
    assert run.check_row(good, "1264357", ref) is None
    assert run.check_row(good.replace(b"505", b"507"), "1264357", ref) is not None
    assert run.check_row(good.replace(b'"qbpd_count": 69', b'"qbpd_count": 70'), "1264357", ref) is not None


def test_check_enum_rejects_duplicates_and_bad_dominoes():
    from qbpd.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["enum", "4213"]) == 0
    out = buf.getvalue()
    assert run.check_enum(out.encode(), "4213", 5) is None
    assert run.check_enum(out.encode(), "4213", 6) is not None
    head, _, body = out.partition("\n")
    blocks = body.split("\n\n")
    duplicated = "\n\n".join(blocks[:-1] + [blocks[0].rstrip("\n")]) + "\n"
    assert "duplicate" in run.check_enum(f"{head}\n{duplicated}".encode(), "4213", 5)
    off_grid = "\n\n".join([blocks[0] + "\n4,1"] + blocks[1:])
    assert "domino" in run.check_enum(f"{head}\n{off_grid}".encode(), "4213", 5)
    assert run.check_enum(out.encode(), "3412", 5) is not None
