import functools
import hashlib
import json
import os
import signal

import pytest

import qbpd.analysis
from qbpd.analysis import cancellation_stats
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
    # tests that reach the pool pass --jobs: the default is every CPU
    code, out, _ = run(capsys, "--jobs", "2", "stats", "--n", "3")
    assert code == 0 and "total=0" in out
    code, out, _ = run(capsys, "--jobs", "2", "stats", "--n", "4")
    assert "total=5" in out and "max=2" in out and "argmax=4132" in out
    code, out, _ = run(capsys, "--jobs", "2", "stats", "--n", "4", "--format", "csv")
    lines = out.strip().splitlines()
    assert len(lines) == 25 and lines[0].startswith("perm,")
    code, out, err = run(capsys, "stats", "--n", "7")
    assert code == 2 and "forced" in err


def test_stats_deterministic_across_workers(capsys):
    # 24 rows go to the pool one per task, 120 in chunks of seven
    for n in ("4", "5"):
        outputs = set()
        for jobs in ("1", "2"):
            argv = ("--jobs", jobs, "stats", "--n", n, "--format", "csv")
            code, out, _ = run(capsys, *argv)
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


_heavy_row_stats = functools.cache(cancellation_stats)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["stats", "--perm", "7165432"], "7c1313cec50d3129256ab12d2be83488"),
        (
            ["stats", "--perm", "7165432", "--format", "csv"],
            "299476bf5f9392970befa2c03523c1f1",
        ),
        (
            ["stats", "--perm", "7165432", "--format", "json"],
            "c23907bb8d1ff15825a0f12d0e7f8161",
        ),
        (["--jobs", "2", "stats", "--n", "5"], "5f64ca451b4a38b59ad43e75b6115a96"),
        (
            ["--jobs", "2", "stats", "--n", "5", "--format", "csv"],
            "14151fb70c500d37c6c30f904b5adf26",
        ),
        (
            ["--jobs", "2", "stats", "--n", "5", "--format", "json"],
            "1b4adfc414ffcf02588395c13d9e3dbe",
        ),
    ],
    ids=["perm-text", "perm-csv", "perm-json", "n5-text", "n5-csv", "n5-json"],
)
def test_stats_golden_output(tmp_path, monkeypatch, capsys, argv, digest):
    # pinned from the writer that built each output whole
    if "--perm" in argv:  # the heavy row is computed once for its three formats
        monkeypatch.setattr(qbpd.analysis, "cancellation_stats", _heavy_row_stats)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest
    if "--n" in argv:  # a sweep writes the same bytes to a file
        path = tmp_path / "s.txt"
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (0, "")
        assert hashlib.md5(path.read_bytes()).hexdigest() == digest


def test_bad_jobs_exit_2(capsys):
    # every verb checks --jobs before it runs, also those with no pool
    for argv in (
        ["--jobs", "0", "stats", "--n", "3"],
        ["--jobs", "0", "verify", "theorem", "--n", "3"],
        ["--jobs", "-5", "verify", "closure", "--n", "3"],
        ["--jobs", "0", "stats", "--perm", "4231"],
        ["--jobs", "0", "poly", "231"],
        ["--jobs", "0", "enum", "231"],
        ["--jobs", "0", "render", "231"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: jobs must be a positive integer, got {argv[1]}\n"


def test_stats_usage_error(capsys):
    code, _, err = run(capsys, "stats")
    assert code == 2
    code, _, err = run(capsys, "stats", "--n", "3", "--perm", "21")
    assert code == 2


def test_verify_commands(capsys):
    code, out, _ = run(capsys, "--jobs", "2", "verify", "theorem", "--n", "3")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "--jobs", "2", "verify", "closure", "--n", "3")
    assert code == 0
    code, out, _ = run(capsys, "--jobs", "2", "verify", "monk", "--n", "3")
    assert code == 0
    code, out, _ = run(capsys, "--jobs", "2", "verify", "transition", "--n", "3")
    assert code == 0
    code, out, _ = run(capsys, "--jobs", "2", "verify", "stability", "--n", "3")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "theorem", "--n", "4"],
        ["verify", "transition", "--n", "4"],
        ["verify", "monk", "--n", "4"],
        ["verify", "closure", "--n", "5"],
        ["verify", "stability", "--n", "4"],
        ["verify", "theorem", "--n", "6", "--sample", "5", "--seed", "3"],
    ],
    ids=["theorem", "transition", "monk", "closure", "stability", "theorem-sample"],
)
def test_verify_output_identical_across_jobs(capsys, argv):
    one, two = (run(capsys, "--jobs", jobs, *argv) for jobs in ("1", "2"))
    assert one == two and one[0] == 0 and one[1].endswith(", ok\n")


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


def test_no_traceback_on_mutated_diagram_files(tmp_path, capsys):
    # seeded edits of the grid and domino lines of an ``enum 4213`` file;
    # the size lines stay, so every run is a 4 x 4 render
    import random

    path = tmp_path / "d.txt"
    assert run(capsys, "enum", "4213", "--out", str(path))[0] == 0
    lines = path.read_bytes().split(b"\n")
    editable = [k for k, line in enumerate(lines) if line not in (b"", b"4")]
    alphabet = [bytes([b]) for b in b".RJSNHVC,-0123456789 x\t"]
    alphabet += ["\u00e9".encode(), "\u0663".encode(), b"\xff"]
    rng = random.Random(26)
    codes = []
    for _ in range(400):
        mutated = list(lines)
        for _ in range(rng.randint(1, 3)):
            k = rng.choice(editable)
            line = mutated[k]
            i = rng.randrange(len(line) + 1)
            edit = rng.randrange(4)
            if edit == 0:  # replace a character
                line = line[:i] + rng.choice(alphabet) + line[i + 1 :]
            elif edit == 1:  # insert one
                line = line[:i] + rng.choice(alphabet) + line[i:]
            elif edit == 2:  # delete one
                line = line[:i] + line[i + 1 :]
            else:  # repeat the line, or drop it
                line = rng.choice([line + b"\n" + line, b""])
            mutated[k] = line
        path.write_bytes(b"\n".join(mutated))
        code, out, err = run(capsys, "render", str(path))
        assert code in (0, 1, 2), (mutated, code, err)
        if code == 2:
            assert out == "" and err.startswith("error: "), (mutated, out, err)
        codes.append(code)
    assert 0 in codes and 2 in codes


def test_no_traceback_on_odd_command_lines(tmp_path, capsys):
    odd = [
        ["poly", "\u0663\u0661\u0662"],  # Unicode digits read as 312
        ["poly", ""],
        ["enum", " "],
        ["stats", "--perm", ""],
        ["stats", "--n", "0"],
        ["stats", "--n", "-3"],
        ["verify", "theorem", "--n", "0"],
        ["verify", "closure", "--n", "0", "--sample", "3"],
        ["render", "4213", "--index", "12345678901234567890"],
        ["render", "4213", "--index", "-1"],
        ["render", str(tmp_path)],
        ["render", ""],
        ["--jobs", "-1", "stats", "--n", "3"],
        ["poly", "21", "--specialize", ","],
    ]
    for argv in odd:
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), (argv, code, err)
        if code == 2:
            assert out == "", (argv, out)
    assert run(capsys, "poly", "\u0663\u0661\u0662")[1] == run(capsys, "poly", "312")[1]


def test_out_of_memory_exits_2():
    # the weight sum of an S_8 row outgrows a 300 MiB address space in
    # about 3 s; the run ends with one line, not a MemoryError traceback
    import subprocess
    import sys
    from pathlib import Path

    import qbpd

    resource = pytest.importorskip("resource")
    src = str(Path(qbpd.__file__).resolve().parent.parent)
    child = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
        "sys.argv = ['qbpd', 'poly', '87654321', '--force']\n"
        "runpy.run_module('qbpd', run_name='__main__')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == b"error: poly ran out of memory\n"


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


@pytest.mark.parametrize(
    "argv, count, digest",
    [
        # long blank runs: many domino sets per tiling
        (["7165432"], 25800, "684cf871c3450eb086d6f4b87886ba1e"),
        (["7165432", "--unpaired"], 720, "1bc192e2fed3fc943e3a8b290debaba1"),
        # two-digit size line and domino cells
        (
            ["2,10,1,3,4,5,6,7,8,9", "--force"],
            2994,
            "ff9910bd967d9f08e9022fb0394b202f",
        ),
    ],
    ids=["s7-paired", "s7-unpaired", "s10-two-digit"],
)
def test_enum_golden_output_beyond_s5(capsys, argv, count, digest):
    # pinned from the enumerator that listed one entry per diagram
    code, out, _ = run(capsys, "enum", *argv)
    assert code == 0 and out.split("\n", 1)[0] == str(count)
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_enum_out_file_is_stdout_after_the_count(tmp_path, capsys):
    path = tmp_path / "e.txt"
    code, out, _ = run(capsys, "enum", "7165432", "--out", str(path))
    assert code == 0 and out == "25800\n"
    data = path.read_bytes()
    assert hashlib.md5(data).hexdigest() == "b481dfb7842b584f4f6e5601c0f04ef1"
    _, out, _ = run(capsys, "enum", "7165432")
    assert out.encode() == b"25800\n" + data


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--index", "25800"], "fb470f2e68a745c8e1b523d2075be00e"),
        (
            ["--unpaired", "--index", "720", "--format", "svg"],
            "174e733f21106034c7a22064782d53b8",
        ),
    ],
    ids=["last-paired-ascii", "last-unpaired-svg"],
)
def test_render_perm_last_index_s7(capsys, argv, digest):
    code, out, _ = run(capsys, "render", "7165432", *argv)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_render_perm_index_past_the_last_diagram(capsys):
    code, out, err = run(capsys, "render", "7165432", "--index", "25801")
    assert code == 2 and out == ""
    assert err == "error: index 25801 out of range 1..25800\n"


def test_poly_json_golden_output_s4(capsys):
    # md5 over `poly w --format json` in every mode for every w in S_1..S_4,
    # and 632541 by the weight sum, pinned before JSON was decoded by block
    h = hashlib.md5()
    argvs = [
        (w.to_text(), mode)
        for n in range(1, 5)
        for w in enumerate_symmetric_group(n)
        for mode in ("qbpd", "oracle", "transition")
    ]
    for w, mode in [*argvs, ("632541", "qbpd")]:
        code, out, _ = run(capsys, "poly", w, "--mode", mode, "--format", "json")
        assert code == 0
        h.update(out.encode())
    assert h.hexdigest() == "0e541242831d619957cbfa79c03ba492"


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
        (b"3.0\nR\n", "size line '3.0' is not an integer"),
    ],
    ids=[
        "directory",
        "non-utf8",
        "size-0",
        "size-negative",
        "domino-3-values",
        "size-not-integer",
    ],
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
    [
        (["enum", "7654321"], 1),
        (["stats", "--perm", "654321"], 0),
        (["poly", "654321", "--format", "json"], 0),
    ],
    ids=["enum-after-one-line", "stats-before-any", "poly-json-before-any"],
)
def test_closed_stdout_ends_quietly(argv, lines):
    # enum 7654321 writes 246 kB and poly 654321 as JSON 9.6 MB, more than
    # a pipe holds, so the write after the reader leaves fails rather than
    # filling the pipe
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
        ["--jobs", "2", "verify", "monk", "--n", "3"],
        ["render", "321"],
    ],
    ids=["enum", "poly", "stats", "verify", "render"],
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_to_full_device_exit_2(capsys):
    code, out, err = run(capsys, "poly", "4213", "--out", "/dev/full")
    assert code == 2 and not out
    assert err == "error: cannot write /dev/full: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_poly_output_is_not_held_whole(fmt):
    # VmHWM starts afresh at exec; poly 654321 writes 3.9 MB of text or
    # 9.6 MB of JSON, and peaked at 41 and 80 MiB when both were built whole
    import subprocess
    import sys
    from pathlib import Path

    import qbpd

    src = str(Path(qbpd.__file__).resolve().parent.parent)
    code = (
        "from qbpd.cli import main\n"
        f"assert main(['poly', '654321', '--format', '{fmt}']) == 0\n"
        "status = open('/proc/self/status').read().split('\\n')\n"
        "print(next(line for line in status if line.startswith('VmHWM:')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    *_, last = result.stdout.splitlines()
    _, kib, unit = last.split()
    assert unit == "kB"
    assert int(kib) <= 36 * 1024, last


def test_out_to_missing_directory_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "enum", "123", "--out", str(target))
    assert code == 2 and not out
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
    from qbpd.cli import _verify_perms
    from qbpd.perm import length

    closure = qbpd.moves._closure
    monkeypatch.setattr(qbpd.moves, "_closure", lambda w: closure(w)[:-1])
    code, out, _ = run(capsys, "verify", "closure", "--n", "3", "--sample", "1")
    assert code == 1
    first, *_, last = out.splitlines()
    assert first.endswith(": move closure differs from column enumeration")
    assert last == "closure n=3: 1 checks, 1 failures"
    # every row fails; on the pool too, the FAIL lines follow the sample,
    # not the longest-first order in which workers take the rows
    sample = _verify_perms(4, 5, 3)
    assert sample != sorted(sample, key=length, reverse=True)
    fail = "move closure differs from column enumeration"
    expected = [f"FAIL {w}: {fail}" for w in sample]
    expected.append("closure n=4: 5 checks, 5 failures")
    for jobs in ("1", "2"):
        argv = ("verify", "closure", "--n", "4", "--sample", "5", "--seed", "3")
        code, out, _ = run(capsys, "--jobs", jobs, *argv)
        assert (code, out.splitlines()) == (1, expected)


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
    # the six rows of S_3 run on the pool at two jobs, whose forked
    # workers carry the patched route
    outputs = set()
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "--jobs", jobs, "verify", check, "--n", "3")
        assert code == 1
        *fails, last = out.splitlines()
        assert fails and all(line.startswith("FAIL ") for line in fails)
        assert any(line.endswith(failing) for line in fails)
        assert last.endswith(f" checks, {len(fails)} failures")
        outputs.add(out)
    assert len(outputs) == 1


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


SWEEP_S7 = ("stats", "--n", "7", "--force", "--format", "csv")
VERIFY_S7 = ("verify", "theorem", "--n", "7")


@pytest.mark.parametrize(
    "jobs, signum, to_group, command",
    [
        pytest.param("1", signal.SIGINT, True, SWEEP_S7, id="1"),
        pytest.param("2", signal.SIGINT, True, SWEEP_S7, id="2"),
        pytest.param("2", signal.SIGTERM, False, SWEEP_S7, id="2-sigterm-parent"),
        pytest.param("2", signal.SIGTERM, True, SWEEP_S7, id="2-sigterm-group"),
        pytest.param("2", signal.SIGINT, True, VERIFY_S7, id="verify-2"),
        pytest.param(
            "2", signal.SIGTERM, False, VERIFY_S7, id="verify-2-sigterm-parent"
        ),
    ],
)
def test_interrupted_sweep_ends_quietly(jobs, signum, to_group, command):
    # the forced S_7 sweep and the S_7 theorem check run for minutes, so the
    # signal lands mid-row; the command and its workers share a new process
    # group, which must be empty once the command has exited.  SIGTERM ends
    # it as SIGINT does.
    import subprocess
    import sys
    import time
    from pathlib import Path

    import qbpd

    src = str(Path(qbpd.__file__).resolve().parent.parent)
    argv = ["--jobs", jobs, *command]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qbpd", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src, PYTHONFAULTHANDLER="1"),
        start_new_session=True,
    )
    try:
        time.sleep(1)
        if to_group:
            os.killpg(proc.pid, signum)
        else:
            os.kill(proc.pid, signum)
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            # faulthandler prints every thread's stack on SIGABRT
            proc.send_signal(signal.SIGABRT)
            try:
                err = proc.communicate(timeout=10)[1]
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                err = proc.communicate()[1]
            trace = err.decode(errors="replace")
            pytest.fail(f"no exit 30 s after {signum!r}:\n{trace}")
        if signum == signal.SIGINT:
            assert (proc.returncode, err) == (130, b"interrupted\n")
        else:
            assert (proc.returncode, err) == (143, b"terminated\n")
        assert out == b""
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def signal_during_startup(signum):
    """``python -m qbpd enum`` sent ``signum`` while it imports the command."""
    import subprocess
    import sys
    from pathlib import Path

    import qbpd

    src = str(Path(qbpd.__file__).resolve().parent.parent)
    child = (
        "import os, runpy, signal, sys\n"
        "class Interrupt:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'qbpd.perm':\n"
        f"            os.kill(os.getpid(), {int(signum)})\n"
        "sys.meta_path.insert(0, Interrupt())\n"
        "sys.argv = ['qbpd', 'enum', '4213', '--count']\n"
        "runpy.run_module('qbpd', run_name='__main__')\n"
    )
    return subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
    )


def test_interrupt_during_startup_ends_quietly():
    result = signal_during_startup(signal.SIGINT)
    assert result.returncode == 130
    assert result.stdout == b"" and result.stderr == b"interrupted\n"


def test_sigterm_during_startup_ends_quietly():
    result = signal_during_startup(signal.SIGTERM)
    assert result.returncode == 143
    assert result.stdout == b"" and result.stderr == b"terminated\n"


def _stat(pid):
    """The fields of /proc/<pid>/stat after the name, or None once gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return None


def _alive(pid):
    """Whether ``pid`` runs: present in /proc and not a zombie."""
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


@pytest.mark.skipif(not os.path.exists("/proc/self/task"), reason="no /proc")
@pytest.mark.parametrize(
    "command, method, delay",
    [
        pytest.param(SWEEP_S7, "fork", 0, id="stats"),
        pytest.param(VERIFY_S7, "fork", 0, id="verify"),
        pytest.param(SWEEP_S7, "spawn", 0, id="stats-spawn"),
        pytest.param(SWEEP_S7, "forkserver", 0, id="stats-forkserver"),
        pytest.param(SWEEP_S7, "fork", 0.5, id="stats-late-watcher"),
    ],
)
def test_workers_end_after_parent_is_killed(command, method, delay):
    # SIGKILL leaves the pool no chance to terminate its workers; they are
    # reparented and must notice on their own.  A worker also stops when
    # it next sends a result to the dead parent, which on the first S_7
    # theorem rows is minutes away, and on the sweep a whole chunk away.
    # Whatever the default start method, the workers are the children.
    # ``delay`` holds each worker's initializer back, so that the kill
    # lands before its watcher starts: the watcher must still notice.
    import multiprocessing
    import subprocess
    import sys
    import time
    from pathlib import Path

    import qbpd

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    src = str(Path(qbpd.__file__).resolve().parent.parent)
    code = (
        "import multiprocessing, sys\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "import time, qbpd.rows\n"
        "init = qbpd.rows._worker_signals\n"
        f"qbpd.rows._worker_signals = lambda *a: (time.sleep({delay}), init(*a))\n"
        "from qbpd.__main__ import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "--jobs", "2", *command],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=src),
        start_new_session=True,
    )
    children = f"/proc/{proc.pid}/task/{proc.pid}/children"
    workers = {}
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
            with open(children) as f:
                found = {int(pid): _stat(int(pid)) for pid in f.read().split()}
            # each with its start time, field 22 of /proc/<pid>/stat
            workers = {pid: fields[19] for pid, fields in found.items() if fields}
        assert len(workers) == 2
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_alive, workers))
    finally:
        # a pid that has ended may already name another process: kill only
        # the workers still running with the start time they had here
        for pid, started in workers.items():
            fields = _stat(pid)
            if fields is not None and fields[0] != "Z" and fields[19] == started:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:  # ended since
                    pass
        if proc.poll() is None:
            proc.kill()
            proc.wait()


PACKAGE_ERRORS = [
    ("NotABijection", ("(1, 1) is not a bijection of 1..2",)),
    ("OutOfRange", ("index 9 out of range 1..5",)),
    ("IdentityPermutation", ("transition setup needs a non-identity input",)),
    ("AmbientMismatch", ("ambient sizes 3 and 4 differ",)),
    ("InvalidDiagram", (["pipe 1 stuck at (2,3): no segment on side N"],)),
    ("HasDominoes", ("domino pairings start from an unpaired diagram",)),
    ("SizeLimit", ("poly with n = 8 > 7 must be forced with --force",)),
]


def test_package_errors_are_all_listed():
    import qbpd.errors

    errors = {
        name
        for name, value in vars(qbpd.errors).items()
        if isinstance(value, type) and issubclass(value, ValueError)
    }
    assert errors == {name for name, _ in PACKAGE_ERRORS}


@pytest.mark.parametrize(
    "name, args", PACKAGE_ERRORS, ids=[name for name, _ in PACKAGE_ERRORS]
)
def test_every_package_error_is_one_error_line(capsys, monkeypatch, name, args):
    import qbpd.cli
    import qbpd.errors

    error = getattr(qbpd.errors, name)(*args)

    def verb(args):
        raise error

    monkeypatch.setattr(qbpd.cli, "cmd_poly", verb)
    code, out, err = run(capsys, "poly", "21")
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "message, lines",
    [
        ("first\nsecond", "error: first\nerror: second\n"),
        ("", "error: \n"),
    ],
    ids=["two-lines", "no-message"],
)
def test_error_line_per_message_line(capsys, monkeypatch, message, lines):
    import qbpd.cli

    def verb(args):
        raise ValueError(message)

    monkeypatch.setattr(qbpd.cli, "cmd_stats", verb)
    assert run(capsys, "stats", "--n", "3") == (2, "", lines)


def test_diagram_file_problems_are_one_line_each(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3\nRRR\nRRR\nRRR\n")
    code, out, err = run(capsys, "render", str(path))
    lines = err.splitlines()
    assert (code, out) == (2, "") and len(lines) > 1
    assert all(line.startswith("error: diagram 1: ") for line in lines)


def test_stdout_that_cannot_encode_exits_2():
    # render draws with box-drawing characters, which ASCII cannot encode
    import subprocess
    import sys
    from pathlib import Path

    import qbpd

    src = str(Path(qbpd.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "qbpd", "render", "21"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii"),
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: 'ascii' codec can't encode")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
