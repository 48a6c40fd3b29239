import hashlib
import json
import os

import pytest

from qbpd.cli import main
from qbpd.perm import enumerate_symmetric_group
from qbpd.polyring import Poly


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enum_counts(capsys):
    code, out, _ = run(capsys, "enum", "4213", "--count")
    assert code == 0 and out.splitlines()[0] == "5"
    code, out, _ = run(capsys, "enum", "4132", "--count")
    assert code == 0 and out.splitlines()[0] == "9"
    code, out, _ = run(capsys, "enum", "1", "--count")
    assert code == 0 and out.splitlines()[0] == "1"
    code, out, _ = run(capsys, "enum", "4213", "--count", "--unpaired")
    assert code == 0 and out.splitlines()[0] == "3"


def test_enum_accepts_comma_notation(capsys):
    code, out, _ = run(capsys, "enum", "4,2,1,3", "--count")
    assert code == 0 and out.splitlines()[0] == "5"


def test_enum_listing(capsys):
    code, out, _ = run(capsys, "enum", "321")
    assert code == 0
    assert out.splitlines()[0] == "2"
    assert out.count("\n3\n") >= 1  # serialized blocks present


def test_poly_modes_identical(capsys):
    outputs = set()
    for mode in ("qbpd", "oracle", "transition"):
        code, out, _ = run(capsys, "poly", "4213", "--mode", mode)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_poly_modes_identical_s4(capsys):
    for w in enumerate_symmetric_group(4):
        outs = set()
        for mode in ("qbpd", "oracle", "transition"):
            code, out, _ = run(capsys, "poly", w.to_text(), "--mode", mode)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1


def test_poly_text_and_json(capsys):
    code, out, _ = run(capsys, "poly", "21")
    assert code == 0 and out.strip() == "x1 - y1"
    code, out, _ = run(capsys, "poly", "21", "--format", "json")
    data = json.loads(out)
    assert data["n"] == 2
    assert [t["c"] for t in data["terms"]] == ["1", "-1"]


def test_poly_specialize(capsys):
    code, out, _ = run(capsys, "poly", "4213", "--specialize", "y,q")
    assert code == 0 and out.strip() == "x1^3*x2"
    code, out, _ = run(capsys, "poly", "21", "--specialize", "z")
    assert code == 2


@pytest.mark.parametrize("mode", ["qbpd", "oracle", "transition"])
def test_poly_checks_specialization_before_computing(capsys, monkeypatch, mode):
    import qbpd.analysis
    import qbpd.oracle

    def must_not_run(w):
        raise AssertionError(f"polynomial of {w} built before --specialize was checked")

    for module, name in (
        (qbpd.analysis, "qbpd_polynomial"),
        (qbpd.oracle, "quantum_double_schubert_defining"),
        (qbpd.oracle, "quantum_double_schubert_transition"),
    ):
        monkeypatch.setattr(module, name, must_not_run)
    argv = ("poly", "654321", "--mode", mode, "--specialize", "y,z")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: unknown specialization ['z']\n"


def test_stats_perm(capsys):
    code, out, _ = run(capsys, "stats", "--perm", "4132")
    assert code == 0 and out.strip() == "50,54,2,9"
    code, out, _ = run(capsys, "stats", "--perm", "4132", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "perm,poly_monomials,qbpd_monomials,cancellations,qbpd_count"
    assert lines[1] == "4132,50,54,2,9"
    code, out, _ = run(capsys, "stats", "--perm", "4132", "--format", "json")
    assert out == (
        '{"perm": "4132", "poly_monomials": 50, "qbpd_monomials": 54,'
        ' "cancellations": 2, "qbpd_count": 9}\n'
    )


def test_stats_group(capsys):
    code, out, _ = run(capsys, "stats", "--n", "3")
    assert code == 0 and "total=0" in out
    code, out, _ = run(capsys, "stats", "--n", "4")
    assert "total=5" in out and "max=2" in out and "argmax=4132" in out
    code, out, _ = run(capsys, "stats", "--n", "4", "--format", "csv")
    lines = out.strip().splitlines()
    assert len(lines) == 25 and lines[0].startswith("perm,")
    code, out, err = run(capsys, "stats", "--n", "7")
    assert code == 2 and "forced" in err


def test_stats_deterministic_across_workers(capsys):
    outputs = set()
    for jobs in ("1", "2"):
        code, out, _ = run(
            capsys, "--jobs", jobs, "stats", "--n", "4", "--format", "csv"
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_stats_json_identical_across_workers(capsys):
    digests = set()
    for jobs in ("1", "2"):
        argv = ("--jobs", jobs, "stats", "--n", "3", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        digests.add(hashlib.md5(out.encode()).hexdigest())
    assert digests == {"80c7c609884643888c31b9a0a614e360"}


def test_bad_jobs_exit_2(capsys):
    code, out, err = run(capsys, "--jobs", "0", "stats", "--n", "3")
    assert code == 2 and not out and "got 0" in err


def test_stats_usage_error(capsys):
    code, _, err = run(capsys, "stats")
    assert code == 2
    code, _, err = run(capsys, "stats", "--n", "3", "--perm", "21")
    assert code == 2


def test_verify_commands(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--n", "3")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "verify", "closure", "--n", "3")
    assert code == 0
    code, out, _ = run(capsys, "verify", "monk", "--n", "3")
    assert code == 0
    code, out, _ = run(capsys, "verify", "transition", "--n", "3")
    assert code == 0
    code, out, _ = run(capsys, "verify", "stability", "--n", "3")
    assert code == 0


def test_render_ascii(capsys):
    code, out, _ = run(capsys, "render", "1")
    assert code == 0 and out.strip() == "┌"
    code, out, _ = run(capsys, "render", "4213", "--index", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    code, _, err = run(capsys, "render", "4213", "--index", "99")
    assert code == 2 and "out of range" in err


def test_render_svg(capsys):
    code, out, _ = run(capsys, "render", "321", "--format", "svg", "--index", "2")
    assert code == 0 and out.startswith("<svg") and "</svg>" in out


def test_render_file_round_trip(tmp_path, capsys):
    path = tmp_path / "diagrams.txt"
    code, out, _ = run(capsys, "enum", "4213", "--out", str(path))
    assert code == 0
    for i in (1, 3, 5):
        code, from_file, _ = run(capsys, "render", str(path), "--index", str(i))
        assert code == 0
        code, from_perm, _ = run(capsys, "render", "4213", "--index", str(i))
        assert from_file == from_perm


def test_render_file_off_grid_domino(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3\nRHH\nVRH\nVVR\n5,5\n")
    code, out, err = run(capsys, "render", str(path))
    assert code == 2 and out == ""
    assert "domino at (5,5) out of bounds" in err


def test_render_file_invalid_tiling(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3\nRRR\nRRR\nRRR\n")
    code, out, err = run(capsys, "render", str(path))
    assert code == 2 and out == ""
    assert "pipe 1 stuck at (2,3)" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "enum", "4223")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "poly", "not-a-perm")
    assert code == 2


def test_domino_glyphs_in_render(capsys):
    code, out, _ = run(capsys, "render", "321", "--index", "2")
    assert code == 0
    if "D" not in out:
        code, out, _ = run(capsys, "render", "321", "--index", "1")
    assert "D" in out and "d" in out


def test_enum_golden_output_s5(capsys):
    # md5 over `enum w` and `enum w --unpaired` for every w in S_1..S_5,
    # pinned from the recursive domino matcher this enumerator replaced
    h = hashlib.md5()
    for n in range(1, 6):
        for w in enumerate_symmetric_group(n):
            for extra in ((), ("--unpaired",)):
                code, out, _ = run(capsys, "enum", w.to_text(), *extra)
                assert code == 0
                h.update(out.encode())
    assert h.hexdigest() == "6fa076c0c51c6204ae663d8e807fc813"


def test_enum_and_poly_size_guard(capsys):
    for verb in ("enum", "poly"):
        code, out, err = run(capsys, verb, "12345687")
        assert code == 2 and not out
        assert "n = 8" in err and "--force" in err
    code, out, _ = run(capsys, "enum", "12345687", "--force", "--count")
    assert code == 0 and out == "7\n"
    code, out, _ = run(capsys, "enum", "7654321", "--unpaired", "--count")
    assert code == 0 and out == "1\n"


def test_enum_forced_s8_count(capsys):
    # the tiling count the move closure also finds for this permutation
    code, out, err = run(capsys, "enum", "74218365", "--unpaired", "--count")
    assert code == 2 and not out and "--force" in err
    code, out, _ = run(capsys, "enum", "74218365", "--force", "--unpaired", "--count")
    assert code == 0 and out == "8929\n"


def test_verify_sample_below_one_exit_2(capsys):
    for bad in ("-1", "0"):
        code, out, err = run(capsys, "verify", "theorem", "--n", "3", "--sample", bad)
        assert code == 2 and not out and f"got {bad}" in err
    code, out, _ = run(capsys, "verify", "theorem", "--n", "3", "--sample", "2")
    assert code == 0 and "2 checks, ok" in out


def test_verify_sample_applies_to_every_check(capsys):
    # monk checks each k = 1..n-1 of every sampled permutation
    for check, n, sample, checks in (
        ("closure", "4", "2", 2),
        ("monk", "3", "1", 2),
        ("stability", "3", "1", 1),
    ):
        code, out, _ = run(capsys, "verify", check, "--n", n, "--sample", sample)
        assert code == 0 and f"n={n}: {checks} checks, ok" in out


def test_stats_n_zero_is_out_of_range(capsys):
    code, out, err = run(capsys, "stats", "--n", "0")
    assert code == 2 and not out and "n must be >= 1" in err


def test_stats_perm_size_guard(capsys):
    code, out, err = run(capsys, "stats", "--perm", "21436587")
    assert code == 2 and not out
    assert "n = 8" in err and "--force" in err
    code, out, _ = run(capsys, "stats", "--perm", "21436587", "--force")
    assert code == 0 and out


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read"),  # a directory
        (b"1\n\xff\n", "cannot read"),
        (b"0\n", "size 0 is not positive"),
        (b"-1\nR\n", "size -1 is not positive"),
        (b"2\nRH\nVR\n1,2,3\n", "domino line '1,2,3' is not two integers"),
    ],
    ids=["directory", "non-utf8", "size-0", "size-negative", "domino-3-values"],
)
def test_render_bad_file_exit_2(tmp_path, capsys, content, message):
    path = tmp_path
    if content is not None:
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
    code, out, err = run(capsys, "render", str(path))
    assert code == 2 and not out and message in err


@pytest.mark.parametrize("content", ["", "\n\n  \n"], ids=["empty", "blank-lines"])
def test_render_file_without_diagram_exit_2(tmp_path, capsys, content):
    path = tmp_path / "none.txt"
    path.write_text(content)
    code, out, err = run(capsys, "render", str(path))
    assert code == 2 and not out
    assert err == f"error: {path} holds no diagram\n"


@pytest.mark.parametrize(
    "argv, lines",
    [(["enum", "7654321"], 1), (["stats", "--perm", "654321"], 0)],
    ids=["enum-after-one-line", "stats-before-any"],
)
def test_closed_stdout_ends_quietly(argv, lines):
    # enum 7654321 writes 246 kB, more than a pipe holds, so the write
    # after the reader leaves fails rather than filling the pipe
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qbpd

    src = str(Path(qbpd.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qbpd", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "321"],
        ["poly", "321"],
        ["stats", "--perm", "321"],
        ["verify", "monk", "--n", "3"],
        ["render", "321"],
    ],
    ids=lambda argv: argv[0],
)
def test_full_stdout_exit_2(argv):
    import subprocess
    import sys
    from pathlib import Path

    import qbpd

    src = str(Path(qbpd.__file__).resolve().parent.parent)
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "qbpd", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
    assert result.returncode == 2
    assert result.stderr == "error: cannot write stdout: No space left on device\n"


def test_out_to_missing_directory_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "enum", "123", "--out", str(target))
    assert code == 2
    assert f"error: cannot write {target}: No such file or directory" in err
    assert not target.parent.exists()


def test_out_to_directory_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "poly", "123", "--out", str(tmp_path))
    assert code == 2 and not out
    assert f"error: cannot write {tmp_path}: Is a directory" in err


def test_verify_size_guard(capsys):
    # forcing n = 8 is not run: a full S_8 suite takes hours
    for check in ("theorem", "closure"):
        code, out, err = run(capsys, "verify", check, "--n", "8")
        assert code == 2 and not out
        assert "verify with n = 8" in err and "--force" in err


def test_verify_closure_forced_s8(capsys):
    # seed 5 draws 43267158, whose 30 tilings take about 0.01 s
    argv = ("verify", "closure", "--n", "8", "--force", "--sample", "1", "--seed", "5")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, "closure n=8: 1 checks, ok\n", "")


def test_verify_closure_reports_a_missing_tiling(capsys, monkeypatch):
    import qbpd.moves

    closure = qbpd.moves._closure
    monkeypatch.setattr(qbpd.moves, "_closure", lambda w: closure(w)[:-1])
    code, out, _ = run(capsys, "verify", "closure", "--n", "3", "--sample", "1")
    assert code == 1
    first, *_, last = out.splitlines()
    assert first.endswith(": move closure differs from column enumeration")
    assert last == "closure n=3: 1 checks, 1 failures"


def with_wrong_term(route, row):
    """``route`` with one extra term x_1 on the permutation ``row`` alone."""

    def wrong(w, *args):
        p = route(w, *args)
        return p + Poly.x(1, w.n) if w.to_text() == row else p

    return wrong


@pytest.mark.parametrize(
    "check, route, row, failing",
    [
        (
            "theorem",
            "oracle.quantum_double_schubert_defining",
            "231",
            "231: weight sum differs from defining formula",
        ),
        (
            "theorem",
            "oracle.quantum_double_schubert_transition",
            "231",
            "231: weight sum differs from transition recursion",
        ),
        (
            "transition",
            "oracle.transition_rhs",
            "231",
            "231: nonzero transition residual",
        ),
        # Monk's rule evaluates every polynomial in S_{n+1}
        (
            "monk",
            "oracle.quantum_double_schubert_defining",
            "2314",
            "231: nonzero Monk residual",
        ),
        (
            "stability",
            "analysis.qbpd_polynomial",
            "231",
            "231: weight sum not stable under embedding",
        ),
    ],
    ids=["theorem-defining", "theorem-transition", "transition", "monk", "stability"],
)
def test_verify_reports_a_wrong_term(capsys, monkeypatch, check, route, row, failing):
    import importlib

    module, name = route.split(".")
    mod = importlib.import_module(f"qbpd.{module}")
    monkeypatch.setattr(mod, name, with_wrong_term(getattr(mod, name), row))
    code, out, _ = run(capsys, "verify", check, "--n", "3")
    assert code == 1
    *fails, last = out.splitlines()
    assert fails and all(line.startswith("FAIL ") for line in fails)
    assert any(line.endswith(failing) for line in fails)
    assert last.endswith(f" checks, {len(fails)} failures")


@pytest.mark.parametrize(
    "argv",
    [["enum"], ["poly"], ["stats", "--perm"], ["render"]],
    ids=["enum", "poly", "stats", "render"],
)
def test_bad_permutation_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "4223")
    assert code == 2 and not out
    assert err == "error: cannot parse permutation '4223'\n"


def test_render_perm_size_guard(capsys):
    code, out, err = run(capsys, "render", "12345687")
    assert code == 2 and not out
    assert "render with n = 8" in err and "--force" in err
    code, out, _ = run(capsys, "render", "12345687", "--force", "--index", "7")
    assert code == 0 and out


def test_verify_sample_draws_as_list_sampling():
    import random

    from qbpd.cli import _nth_perm, _verify_perms

    for n in range(3, 8):
        group = list(enumerate_symmetric_group(n))
        assert [_nth_perm(n, i) for i in range(0, len(group), 7)] == group[::7]
        for seed in range(5):
            for k in (1, 2, 5, 23, 100, 500):
                if k < len(group):
                    expected = random.Random(seed).sample(group, k)
                    assert _verify_perms(n, k, seed) == expected
                else:
                    assert list(_verify_perms(n, k, seed)) == group


def test_python_m_qbpd():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qbpd

    src = str(Path(qbpd.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "qbpd", "enum", "4213", "--count"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0 and result.stdout == "5\n"
    result = subprocess.run(
        [sys.executable, "-m", "qbpd", "enum", "1223"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 2 and result.stderr.startswith("error:")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_interrupted_sweep_ends_quietly(jobs):
    # the forced S_7 sweep runs for minutes, so SIGINT lands mid-row; the
    # command and its workers share a new process group, which must be
    # empty once the command has exited
    import signal
    import subprocess
    import sys
    import time
    from pathlib import Path

    import qbpd

    src = str(Path(qbpd.__file__).resolve().parent.parent)
    argv = ["--jobs", jobs, "stats", "--n", "7", "--force", "--format", "csv"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qbpd", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
        start_new_session=True,
    )
    try:
        time.sleep(1)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 130
        assert out == b"" and err == b"interrupted\n"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
