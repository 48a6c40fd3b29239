"""The qbpd benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is run from ``src/`` as it
stands, with no install step.  Every request is a fresh ``qbpd`` process,
sent by a single client in a closed loop: the next request starts when the
previous one has exited.  A workload is a fixed list of requests drawn from
the seed; one run over it is a pass.  A run makes a fixed number of passes
(three on sweep-s6, four on poly-modes and s7-rows, five on enum-s7), about
35 s together on the 2-core reference machine, and starts no pass after S
seconds.  A fixed pass count gives every run the same latency
sample count and tail rank.  Each pass starts at another request, and every
request's time is taken as its median over the passes, so one slow stretch
of a shared machine does not decide the result.  Every output is checked
against an independent reference (``refs.json``, see ``make_refs.py``); a
request that exits non-zero, times out or mismatches counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` the run makes one untraced pass and
one pass through ``tracer.py``, which wraps every public layer function in
a span, and carries the per-layer metrics plus the tracing overhead.
METRICS.md maps each layer metric to the end-to-end metrics it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
REFS = BENCH / "refs.json"

# Every run ends well inside the 180 s a run may take, whatever hangs.
HARD_LIMIT_S = 165.0
SETUP_SAMPLES = 3  # before the first pass and after each pass
SWEEP_JOBS = 2  # nproc of the 2-core reference machine
MODES = ("qbpd", "oracle", "transition")
# The paper's Table 2 for S_6.
TABLE2_S6 = {"rows": 720, "total": 570549, "max": 21510, "argmax": "615432"}
CSV_HEADER = "perm,poly_monomials,qbpd_monomials,cancellations,qbpd_count"
# Mirrors the installed ``qbpd`` console script.
QBPD = (sys.executable, "-c", "import sys; from qbpd.cli import main; sys.exit(main())")
IMPORT_ONLY = (sys.executable, "-c", "import qbpd.cli")


class Refused(Exception):
    """The benchmark cannot run as asked; it exits 2 without a result."""


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Request:
    args: tuple[str, ...]
    label: str  # "stats", "enum", or the poly mode


@dataclass
class Job:
    """Requests whose outputs are checked together, and the work they stand for."""

    requests: list[Request]
    check: Callable[[list[bytes]], str | None]  # None, or why the outputs are wrong
    units: dict[str, int]  # perms, diagrams and expanded terms of the inputs


@dataclass
class Workload:
    jobs: list[Job]
    workers: int = 1  # processes one request may keep busy
    passes: int = 4


def _ref(refs: dict, perm: str, need_poly: bool = False) -> list:
    row = refs["rows"].get(perm)
    if row is None or (need_poly and row[0] is None):
        raise Refused(f"no reference row for {perm}; regenerate bench/refs.json")
    return row


def _units(row: list) -> dict[str, int]:
    return {"perms": 1, "diagrams": row[2], "terms": row[1]}


def _sample(refs: dict, name: str, seed: int) -> list[str]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.choice(band) for band in refs["bands"][name]]


def sweep_s6(refs: dict, seed: int, traced: bool) -> Workload:
    # The seed has no effect: the sweep always covers all of S_6.  The
    # traced run uses one process so that every span lands in it.
    jobs = 1 if traced else SWEEP_JOBS
    rows = {p: r for p, r in refs["rows"].items() if len(p) == 6}
    if len(rows) != TABLE2_S6["rows"]:
        raise Refused("refs.json lacks S_6 rows; regenerate bench/refs.json")
    units = {
        "perms": len(rows),
        "diagrams": sum(r[2] for r in rows.values()),
        "terms": sum(r[1] for r in rows.values()),
    }
    request = Request(("--jobs", str(jobs), "stats", "--n", "6", "--format", "csv"), "stats")
    # Three passes: one sweep takes about 11 s.
    return Workload([Job([request], lambda outs: check_sweep(outs[0], rows), units)], jobs, passes=3)


def s7_rows(refs: dict, seed: int, traced: bool) -> Workload:
    # Runnable by hand; not in BENCHMARK.json (see METRICS.md).
    jobs = []
    for perm in _sample(refs, "s7-rows", seed):
        row = _ref(refs, perm, need_poly=True)
        request = Request(("stats", "--perm", perm, "--format", "json"), "stats")
        jobs.append(Job([request], lambda outs, p=perm, r=row: check_row(outs[0], p, r), _units(row)))
    return Workload(jobs)


def poly_modes(refs: dict, seed: int, traced: bool) -> Workload:
    jobs = []
    for perm in _sample(refs, "poly-modes", seed):
        requests = [Request(("poly", perm, "--mode", mode), mode) for mode in MODES]
        jobs.append(Job(requests, check_poly, _units(_ref(refs, perm))))
    # Four passes: a pass of four permutations takes about 8 s.
    return Workload(jobs)


def enum_s7(refs: dict, seed: int, traced: bool) -> Workload:
    jobs = []
    for perm in _sample(refs, "enum-s7", seed):
        row = _ref(refs, perm)
        request = Request(("enum", perm), "enum")
        jobs.append(Job([request], lambda outs, p=perm, n=row[2]: check_enum(outs[0], p, n), _units(row)))
    # Five passes: a pass takes about 6 s.
    return Workload(jobs, passes=5)


WORKLOADS = {
    "sweep-s6": sweep_s6,
    "s7-rows": s7_rows,
    "poly-modes": poly_modes,
    "enum-s7": enum_s7,
}


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else the reason


def check_sweep(out: bytes, rows: dict) -> str | None:
    lines = out.decode().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "missing CSV header"
    cancellations = {}
    for line in lines[1:]:
        perm, *fields = line.split(",")
        poly, terms, canc, count = map(int, fields)
        if terms - poly != 2 * canc:
            return f"{perm}: qbpd_monomials - poly_monomials != 2 * cancellations"
        if rows.get(perm) != [poly, terms, count]:
            return f"{perm}: row {[poly, terms, count]} != reference {rows.get(perm)}"
        cancellations[perm] = canc
    if len(lines) - 1 != TABLE2_S6["rows"] or len(cancellations) != TABLE2_S6["rows"]:
        return f"{len(lines) - 1} rows, {len(cancellations)} distinct, expected 720"
    total = sum(cancellations.values())
    top = max(cancellations.values())
    argmax = min(p for p, c in cancellations.items() if c == top)
    if (total, top, argmax) != (TABLE2_S6["total"], TABLE2_S6["max"], TABLE2_S6["argmax"]):
        return f"total {total}, max {top} at {argmax} differ from Table 2"
    return None


def check_row(out: bytes, perm: str, ref: list) -> str | None:
    row = json.loads(out)
    got = [row["poly_monomials"], row["qbpd_monomials"], row["qbpd_count"]]
    if row["perm"] != perm:
        return f"row for {row['perm']}, asked for {perm}"
    if got != ref:
        return f"{perm}: {got} != reference {ref}"
    if row["qbpd_monomials"] - row["poly_monomials"] != 2 * row["cancellations"]:
        return f"{perm}: qbpd_monomials - poly_monomials != 2 * cancellations"
    return None


def check_poly(outs: list[bytes]) -> str | None:
    if not outs[0].strip():
        return "empty polynomial"
    if any(out != outs[0] for out in outs[1:]):
        return "qbpd, oracle and transition outputs differ"
    return None


def check_enum(out: bytes, perm: str, count: int) -> str | None:
    from qbpd.diagram import Diagram, TileKind, canonical_key, diagram_from_text, extract_permutation

    head, _, body = out.decode().partition("\n")
    blocks = [block for block in body.split("\n\n") if block.strip()]
    if int(head) != count or len(blocks) != count:
        return f"{perm}: header {head}, {len(blocks)} diagrams, reference {count}"
    tilings: dict = {}
    keys = set()
    for block in blocks:
        D = diagram_from_text(block)
        if D.tiles not in tilings:
            # validates the tiling and raises InvalidDiagram if it is not one
            tilings[D.tiles] = extract_permutation(Diagram(D.n, D.tiles)).to_text()
        if tilings[D.tiles] != perm:
            return f"a diagram of {tilings[D.tiles]} in the output for {perm}"
        covered = set()
        for r, c in D.dominoes:
            cells = {(r, c), (r + 1, c)}
            if r >= D.n or covered & cells or any(D.tiles[i - 1][j - 1] != TileKind.BLANK for i, j in cells):
                return f"{perm}: domino at {(r, c)} is not on two free blank cells"
            covered |= cells
        keys.add(canonical_key(D))
    if len(keys) != count:
        return f"{perm}: {count - len(keys)} duplicate diagrams"
    return None


# ---------------------------------------------------------------------------
# running requests


@dataclass
class Outcome:
    wall: float
    cpu: float  # user + system time of the process and every descendant it reaped
    code: int
    maxrss_kb: int  # largest RSS of the process or any descendant it reaped
    timed_out: bool


class Runner:
    """Runs one process at a time, timed by wall clock and measured by wait4."""

    def __init__(self, deadline: float, work: Path):
        self.deadline = deadline
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
        self.env.pop("QBPD_JOBS", None)

    def run(self, argv, out_path: Path) -> Outcome:
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            # A session of its own, so a timeout also kills pool workers.
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT, start_new_session=True)
            lock = threading.Lock()
            state = {"reaped": False, "timed_out": False}

            def kill():
                with lock:
                    if not state["reaped"]:
                        state["timed_out"] = True
                        try:
                            os.killpg(proc.pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                with lock:
                    state["reaped"] = True
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0 and not state["timed_out"]:
            sys.stderr.write((self.work / "stderr").read_text(errors="replace")[-2000:])
        cpu = usage.ru_utime + usage.ru_stime
        return Outcome(wall, cpu, code, usage.ru_maxrss, state["timed_out"])


@dataclass
class Sample:
    key: tuple[int, int]  # (job, request) position in the workload
    label: str
    wall: float
    cpu: float


@dataclass
class PassResult:
    samples: list[Sample] = field(default_factory=list)
    peak_kb: int = 0
    attempted: int = 0
    failed: int = 0
    failed_jobs: set[int] = field(default_factory=set)
    traces: list[dict] = field(default_factory=list)


def judge(job: Job, outs: list[bytes], verdicts: dict) -> str | None:
    """Check a job's outputs once per distinct output; a crash is a failure."""
    digest = hashlib.sha256(repr([r.args for r in job.requests]).encode())
    for out in outs:
        digest.update(hashlib.sha256(out).digest())
    key = digest.hexdigest()
    if key not in verdicts:
        try:
            verdicts[key] = job.check(outs)
        except Exception as exc:  # an unreadable output is a wrong output
            verdicts[key] = f"unreadable output: {type(exc).__name__}: {exc}"
    return verdicts[key]


def run_pass(workload: Workload, runner: Runner, verdicts: dict, traced: bool, first: int = 0) -> PassResult:
    """Run every job once, starting at job ``first`` and wrapping around."""
    result = PassResult()
    spans_path = runner.work / "spans.json"
    count = len(workload.jobs)
    for j in [(first + k) % count for k in range(count)]:
        job = workload.jobs[j]
        outs, problem = [], None
        for i, request in enumerate(job.requests):
            out_path = runner.work / f"out{i}"
            if traced:
                spans_path.unlink(missing_ok=True)
                argv = (sys.executable, str(BENCH / "tracer.py"), str(spans_path), *request.args)
            else:
                argv = QBPD + request.args
            outcome = runner.run(argv, out_path)
            result.samples.append(Sample((j, i), request.label, outcome.wall, outcome.cpu))
            result.peak_kb = max(result.peak_kb, outcome.maxrss_kb)
            if outcome.timed_out:
                problem = problem or f"{' '.join(request.args)}: timed out"
            elif outcome.code != 0:
                problem = problem or f"{' '.join(request.args)}: exit code {outcome.code}"
            outs.append(out_path.read_bytes())
            if traced and spans_path.exists():
                result.traces.append(json.loads(spans_path.read_text()))
        problem = problem or judge(job, outs, verdicts)
        result.attempted += len(job.requests)
        if problem:
            result.failed += len(job.requests)
            result.failed_jobs.add(j)
            print(f"FAILED {problem}", file=sys.stderr)
    return result


def setup_times(runner: Runner) -> list[float]:
    """Times of fresh interpreters importing qbpd.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        outcome = runner.run(IMPORT_ONLY, runner.work / "setup.out")
        if outcome.code != 0:
            raise Refused("importing qbpd.cli failed")
        samples.append(outcome.wall)
    return samples


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload: Workload, passes: list[PassResult], setup_s: float) -> tuple[dict, list[str]]:
    """Pass time and CPU take each request at its median over the passes."""
    by_request: dict[tuple[int, int], list[Sample]] = {}
    for p in passes:
        for sample in p.samples:
            by_request.setdefault(sample.key, []).append(sample)
    wall = sum(statistics.median(s.wall for s in group) for group in by_request.values())
    cpu = sum(statistics.median(s.cpu for s in group) for group in by_request.values())
    samples = [s for p in passes for s in p.samples]
    lat = metrics.latency_summary([s.wall for s in samples])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failed_jobs = set().union(*(p.failed_jobs for p in passes))
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(p.peak_kb for p in passes) / 1024,
        "req_p50_s": lat["p50"],
        "req_tail_s": lat["tail"],
        "parallel_efficiency": cpu / (workload.workers * wall),
    }
    for unit in ("perms", "diagrams", "terms"):
        done = sum(job.units[unit] for j, job in enumerate(workload.jobs) if j not in failed_jobs)
        values[f"{unit}_per_s"] = done / wall
    notes = [
        f"passes = {len(passes)}",
        f"failed_frac = {metrics.failed_fraction(attempted, failed)} ({failed}/{attempted})",
        f"req_tail_s is p{lat['tail_percentile']:.1f} of {lat['samples']} samples",
    ]
    for mode in MODES:
        walls = [s.wall for s in samples if s.label == mode]
        if walls:
            notes.append(f"req_p50_s.{mode} = {statistics.median(walls)} s ({len(walls)} samples)")
    return values, notes


def per_layer(untraced: PassResult, traced: PassResult, names: list[str]) -> tuple[dict, list[str]]:
    merged = metrics.merge_traces(traced.traces)
    values = metrics.layer_metrics(merged, [n for n in names if not n.startswith("trace.")])
    untraced_wall = sum(s.wall for s in untraced.samples)
    traced_wall = sum(s.wall for s in traced.samples)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    notes = [f"untraced wall_s = {untraced_wall} s, traced wall_s = {traced_wall} s"]
    top = sorted(merged["spans"].items(), key=lambda item: -item[1]["self_s"])[:12]
    notes += [f"self {agg['self_s']:.4f} s  calls {agg['calls']}  {name}" for name, agg in top]
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    # A terminated run still kills and reaps the request it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK / f"run-{os.getpid()}"  # runs sharing a checkout do not collide
    try:
        if not (SRC / "qbpd" / "cli.py").is_file():
            raise Refused(f"no program sources at {SRC / 'qbpd'}")
        if not REFS.is_file() or not SPEC.is_file():
            raise Refused("bench/refs.json or BENCHMARK.json is missing")
        spec = json.loads(SPEC.read_text())
        refs = json.loads(REFS.read_text())
        workload = WORKLOADS[args.workload](refs, args.seed, bool(args.trace))
        work.mkdir(parents=True, exist_ok=True)
        sys.path.insert(0, str(SRC))
        runner = Runner(deadline, work)
        verdicts: dict = {}
        runner.run(IMPORT_ONLY, runner.work / "setup.out")  # writes bytecode caches
        if args.trace:
            passes = [run_pass(workload, runner, verdicts, traced) for traced in (False, True)]
            wanted = spec["per_layer"]
            values, notes = per_layer(*passes, [m["name"] for m in wanted])
        else:
            # Set-up samples are spread over the run so that one slow
            # moment of a shared machine does not decide the median.
            setup, passes, start = setup_times(runner), [], time.monotonic()
            while len(passes) < workload.passes and time.monotonic() - start <= args.seconds:
                # Each pass starts at another job, so a slow stretch of a
                # shared machine hits different requests in each pass.
                first = len(passes) * len(workload.jobs) // workload.passes
                passes.append(run_pass(workload, runner, verdicts, False, first))
                setup += setup_times(runner)
            wanted = spec["end_to_end"]
            values, notes = end_to_end(workload, passes, statistics.median(setup))
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]} {m['unit']}")
    for note in notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
