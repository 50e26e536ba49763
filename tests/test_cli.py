"""CLI: exit codes, output formats, and file round-trips."""
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flexdp
from flexdp.cli import run
from flexdp.covers import parse_cover
from flexdp.graphs import MAX_VERTICES, gen_family, parse_graph, serialize_graph


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    """The environment for running `python -m flexdp.cli` on this checkout."""
    src = str(Path(flexdp.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def write_j1(tmp_path):
    graph = tmp_path / "j1.txt"
    cover = tmp_path / "j1cov.txt"
    assert run(["gen", "jm", "--m", "1", "--out", str(graph),
                "--cover-out", str(cover)]) == 0
    return graph, cover


def test_gen_round_trips_through_parsers(tmp_path, capsys):
    graph, cover = write_j1(tmp_path)
    g, pa = parse_graph(graph.read_text())
    expected_g, expected_pa = gen_family("jm", 1)
    assert g == expected_g and pa == expected_pa
    parse_cover(cover.read_text(), g)  # validates
    assert parse_graph(serialize_graph(g, pa)) == (g, pa)


def test_flex_prints_exact_value(tmp_path, capsys):
    graph, cover = write_j1(tmp_path)
    code, out, _ = invoke(capsys, "flex", str(graph), "--cover", str(cover))
    assert code == 0
    assert "epsilon_star = 1/5" in out


def test_flex_json_schema(tmp_path, capsys):
    graph, cover = write_j1(tmp_path)
    code, out, _ = invoke(capsys, "flex", str(graph), "--cover", str(cover),
                          "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon_star"] == "1/5"
    assert payload["colorable"] is True
    rational = re.compile(r"^-?\d+/\d+$")
    for coloring, weight in payload["distribution"]:
        assert re.fullmatch(r"(\d )*\d", coloring)
        assert rational.match(weight)
    for v, c, weight in payload["worst_request"]:
        assert isinstance(v, int) and isinstance(c, int)
        assert rational.match(weight)
    assert "e" not in out.lower().replace("epsilon_star", "").replace(
        "colorable", "").replace("true", "").replace("worst_request", "")


def test_mad_with_oracle(tmp_path, capsys):
    graph, _ = write_j1(tmp_path)
    code, out, _ = invoke(capsys, "mad", str(graph), "--oracle")
    assert code == 0 and "mad = 14/5" in out


def test_potential_subset(tmp_path, capsys):
    graph, _ = write_j1(tmp_path)
    code, out, _ = invoke(capsys, "potential", str(graph))
    assert code == 0 and "potential = 2" in out


def test_packing_failure_exit_code(tmp_path, capsys):
    graph = tmp_path / "k4.txt"
    assert run(["gen", "k4", "--out", str(graph)]) == 0
    code, out, _ = invoke(capsys, "packing", str(graph))
    assert code == 1 and "no fractional packing" in out


def test_theorem_check_small(tmp_path, capsys):
    tsv = tmp_path / "report.tsv"
    code, out, _ = invoke(capsys, "theorem-check", "--max-vertices", "3",
                          "--max-mult", "2", "--tsv", str(tsv))
    assert code == 0
    body = tsv.read_text()
    assert body.startswith("code\t")
    assert "exception" in body          # the doubled triangle

def test_gap_audit_exit_codes(tmp_path, capsys):
    k4 = tmp_path / "k4.txt"
    run(["gen", "k4", "--out", str(k4)])
    code, out, _ = invoke(capsys, "gap-audit", str(k4))
    assert code == 1 and "violation" in out
    j1, _ = write_j1(tmp_path)
    code, out, _ = invoke(capsys, "gap-audit", str(j1))
    assert code == 0


def test_critical_verdict(tmp_path, capsys):
    graph = tmp_path / "i1.txt"
    run(["gen", "im", "--m", "1", "--out", str(graph)])
    code, out, _ = invoke(capsys, "critical", str(graph), "--epsilon", "1/5")
    assert code == 0 and "verdict = critical" in out


def test_discharge_table(tmp_path, capsys):
    graph, _ = write_j1(tmp_path)
    code, out, _ = invoke(capsys, "discharge", str(graph))
    assert code == 0
    assert "vertex\tclass\tsigma\tsent\trecv\tfinal" in out
    assert "conserved: True" in out


def test_gadget_selftest(capsys):
    code, out, _ = invoke(capsys, "gadgets", "--selftest", "--samples", "50",
                          "--seed", "3")
    assert code == 0
    assert out.count("passed") == 4


def test_malformed_input_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("vertices two\n")
    code, _, err = invoke(capsys, "mad", str(bad))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("line, form", [
    ("edge 0 1", "edge U V MULT"),
    ("rho 0", "rho V {3|4|6}"),
    ("basepoint 1 2 0", "basepoint V {0|1|2}"),
])
def test_short_or_long_line_names_its_form(tmp_path, capsys, line, form):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"vertices 2\n{line}\n")
    code, _, err = invoke(capsys, "mad", str(bad))
    assert code == 2
    assert err.strip().endswith(f": line 2: {line!r}: expected {form!r}")
    bad.write_text("vertices\n")
    code, _, err = invoke(capsys, "mad", str(bad))
    assert code == 2 and err.strip().endswith("expected 'vertices N'")


def test_empty_graph_worst_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("vertices 0\n")
    code, _, err = invoke(capsys, "worst", str(empty))
    assert code == 2
    assert err.strip() == "error: cover enumeration requires at least one vertex"


def test_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "flex", "/nonexistent/graph.txt")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("gen", "jm", "--m", "1", "--out"),
    ("gen", "jm", "--m", "1", "--cover-out"),
    ("theorem-check", "--max-vertices", "2", "--tsv"),
], ids=["out", "cover-out", "tsv"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "no-such-dir" / "file.txt"
    code, _, err = invoke(capsys, *argv, str(target))
    assert code == 2
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_worst_command(tmp_path, capsys):
    c2 = tmp_path / "c2.txt"
    run(["gen", "c2", "--out", str(c2)])
    code, out, _ = invoke(capsys, "worst", str(c2), "--per-class")
    assert code == 0
    assert "epsilon_min = 1/4" in out and "classes = 5" in out


def test_worst_output_independent_of_jobs(tmp_path, capsys):
    graph = tmp_path / "i1.txt"
    run(["gen", "im", "--m", "1", "--out", str(graph)])
    _, serial, _ = invoke(capsys, "worst", str(graph), "--jobs", "1")
    _, parallel, _ = invoke(capsys, "worst", str(graph), "--jobs", "2")
    assert serial == parallel
    assert "epsilon_min = 0" in serial


def test_jobs_default_from_environment(monkeypatch):
    from flexdp.cli import build_parser
    monkeypatch.setenv("FLEXDP_JOBS", "3")
    args = build_parser().parse_args(["worst", "g.txt"])
    assert args.jobs == 3
    monkeypatch.setenv("FLEXDP_JOBS", "junk")
    args = build_parser().parse_args(["worst", "g.txt"])
    assert args.jobs == 1


def test_gen_diamond_chain_family(tmp_path, capsys):
    graph = tmp_path / "s.txt"
    cover = tmp_path / "scov.txt"
    assert run(["gen", "s", "--chains", "1,2", "--out", str(graph),
                "--cover-out", str(cover)]) == 0
    g, _ = parse_graph(graph.read_text())
    assert g == gen_family("s", chains=[1, 2])[0]
    parse_cover(cover.read_text(), g)
    code, out, _ = invoke(capsys, "flex", str(graph), "--cover", str(cover))
    assert code == 0 and "epsilon_star = 0" in out  # the inflexible cover


def test_five_hundred_serialization_round_trips():
    import random

    from flexdp.covers import serialize_cover
    from flexdp.graphs import PotentialAssignment
    from oracles import random_connected_multigraph, random_cover

    rng = random.Random(501)
    for _ in range(500):
        g = random_connected_multigraph(rng, max_n=6, max_mult=3)
        pa = PotentialAssignment(
            tuple(rng.choice((3, 4, 6)) for _ in range(g.n)),
            tuple(rng.choice((0, 1, 2)) for _ in range(g.n)))
        assert parse_graph(serialize_graph(g, pa)) == (g, pa)
        cover = random_cover(rng, g)
        assert parse_cover(serialize_cover(cover), g) == cover


def test_worst_per_class_independent_of_jobs(tmp_path, capsys):
    graph = tmp_path / "k4.txt"
    run(["gen", "k4", "--out", str(graph)])
    _, serial, _ = invoke(capsys, "worst", str(graph), "--per-class",
                          "--jobs", "1")
    _, parallel, _ = invoke(capsys, "worst", str(graph), "--per-class",
                            "--jobs", "2")
    assert serial == parallel
    assert "classes = 216" in serial and "  class 215: " in serial


def test_critical_zero_denominator_is_usage_error(tmp_path, capsys):
    graph = tmp_path / "c2.txt"
    run(["gen", "c2", "--out", str(graph)])
    code, _, err = invoke(capsys, "critical", str(graph), "--epsilon", "1/0")
    assert code == 2 and err.startswith("error:")


def test_worst_zero_budget_is_usage_error(tmp_path, capsys):
    graph = tmp_path / "c2.txt"
    run(["gen", "c2", "--out", str(graph)])
    code, _, err = invoke(capsys, "worst", str(graph), "--budget", "0")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", ["worst", "theorem-check"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, command, jobs):
    graph = tmp_path / "c2.txt"
    run(["gen", "c2", "--out", str(graph)])
    target = [str(graph)] if command == "worst" else ["--max-vertices", "2"]
    code, out, err = invoke(capsys, command, *target, "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("argv", [
    ("--max-vertices", "2", "--budget", "0"),
    ("--max-vertices", "0"),
    ("--max-vertices", "2", "--max-mult", "-1"),
], ids=["budget", "max-vertices", "max-mult"])
def test_theorem_check_zero_budget_is_usage_error(capsys, argv):
    code, _, err = invoke(capsys, "theorem-check", *argv)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("max_vertices, max_mult, cap", [("8", "1", 7),
                                                         ("8", "2", 7)])
def test_theorem_check_desk_cap_is_usage_error(capsys, max_vertices, max_mult, cap):
    code, out, err = invoke(capsys, "theorem-check", "--max-vertices",
                            max_vertices, "--max-mult", max_mult)
    assert code == 2 and out == ""
    assert err.startswith(f"error: max_vertices {max_vertices} outside 1..{cap} ")


def test_theorem_check_skipped_graphs_exit_3(capsys):
    code, out, _ = invoke(capsys, "theorem-check", "--max-vertices", "3",
                          "--max-mult", "2", "--budget", "2")
    assert code == 3
    assert "# skipped (budget): " in out
    assert "'skipped': 5" in out


def test_critical_budget_exhausted_exit_3(tmp_path, capsys):
    graph = tmp_path / "c2.txt"
    run(["gen", "c2", "--out", str(graph)])
    code, out, err = invoke(capsys, "critical", str(graph), "--epsilon", "1/6",
                            "--budget", "1")
    assert code == 3
    assert "verdict" not in out and err.startswith("budget exhausted:")


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_critical_budget_below_one_is_usage_error(tmp_path, capsys, budget):
    graph = tmp_path / "c2.txt"
    run(["gen", "c2", "--out", str(graph)])
    code, out, err = invoke(capsys, "critical", str(graph), "--epsilon", "1/5",
                            "--budget", budget)
    assert code == 2 and out == ""
    assert err == "error: budget must be at least 1\n"


def test_mad_of_a_long_path(tmp_path):
    """A 2,000-vertex path: the min cuts walk long augmenting paths on an
    explicit stack, so the answer comes back instead of a recursion-limit
    error."""
    n = 2000
    graph = tmp_path / "path.txt"
    graph.write_text(f"vertices {n}\n"
                     + "".join(f"edge {v} {v + 1} 1\n" for v in range(n - 1)))
    proc = subprocess.run(
        [sys.executable, "-m", "flexdp.cli", "mad", str(graph)],
        capture_output=True, text=True, env=subprocess_env(), timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "mad = 1999/1000\n", "")


def test_perfbench_smoke_check_passes():
    """The benchmark harness still finds every name its tracer wraps."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke check passed" in done.stdout


def test_worst_budget_cut_exits_3(tmp_path, capsys):
    graph = tmp_path / "k4.txt"
    run(["gen", "k4", "--out", str(graph)])
    code, out, _ = invoke(capsys, "worst", str(graph), "--budget", "10")
    assert code == 3
    assert "classes = 216 (incomplete: evaluated 10)" in out
    code, out, _ = invoke(capsys, "worst", str(graph), "--budget", "216")
    assert code == 0
    assert "classes = 216\n" in out


def test_worst_reports_orbits_in_text_only(tmp_path, capsys):
    graph = tmp_path / "k4.txt"
    run(["gen", "k4", "--out", str(graph)])
    _, out, _ = invoke(capsys, "worst", str(graph))
    assert "classes = 216\norbits = 11\n" in out
    _, out, _ = invoke(capsys, "worst", str(graph), "--budget", "10")
    assert "orbits = 4\n" in out
    _, out, _ = invoke(capsys, "worst", str(graph), "--json")
    assert "orbits" not in json.loads(out)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_worst_reports_queries_in_text_only(tmp_path, capsys, jobs):
    """The first K4 orbit's uniform floor is 0, which is its epsilon* and
    settles every later orbit; with --per-class the two orbits whose floor
    is 0 and the four whose floor is 1/3 are settled, one of the other
    five by six colorings, and four by four exclusive pairs, one whose
    floor is 1/4 and three that four colorings cover, so none takes an LP:
    queries count LPs solved."""
    graph = tmp_path / "k4.txt"
    run(["gen", "k4", "--out", str(graph)])
    _, out, _ = invoke(capsys, "worst", str(graph), "--jobs", jobs)
    assert "orbits = 11\nqueries = 0\nwitness_cover" in out
    _, out, _ = invoke(capsys, "worst", str(graph), "--jobs", jobs, "--per-class")
    assert "orbits = 11\nqueries = 0\n" in out
    _, out, _ = invoke(capsys, "worst", str(graph), "--jobs", jobs, "--json")
    assert "queries" not in json.loads(out)


def test_gen_unwritable_cover_path_writes_nothing(tmp_path, capsys):
    graph, cover = tmp_path / "j1.txt", tmp_path / "no-such-dir" / "j1cov.txt"
    code, out, err = invoke(capsys, "gen", "jm", "--m", "1", "--out", str(graph),
                            "--cover-out", str(cover))
    assert code == 2 and out == "" and err.startswith("error: cannot write")
    assert not graph.exists() and not cover.exists()


def test_gen_unknown_cover_kind_writes_nothing(tmp_path, capsys):
    graph, cover = tmp_path / "k4.txt", tmp_path / "k4cov.txt"
    code, out, err = invoke(capsys, "gen", "k4", "--out", str(graph),
                            "--cover-out", str(cover))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not graph.exists() and not cover.exists()
    code, out, _ = invoke(capsys, "gen", "k4", "--cover-out", str(cover))
    assert code == 2 and out == "" and not cover.exists()


def test_gadget_selftest_negative_samples_is_usage_error(capsys):
    code, out, err = invoke(capsys, "gadgets", "--selftest", "--samples", "-3")
    assert code == 2 and out == "" and err.startswith("error:")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails with EPIPE."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_exit_2_without_traceback(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "k4.txt"
    run(["gen", "k4", "--out", str(graph)])
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(["worst", str(graph), "--per-class"]) == 2
    assert capsys.readouterr().err == ""


def test_stdout_pipe_closed_early_exits_2_silently(tmp_path):
    """The whole process, interpreter exit included: the pipe's read end
    is closed before anything is written, as `| head` does once it has
    read its lines, and the buffered rest must not raise at exit."""
    graph = tmp_path / "k4.txt"
    run(["gen", "k4", "--out", str(graph)])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flexdp.cli", "worst", str(graph), "--per-class"],
            stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(), timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [["flex"], ["critical", "--epsilon", "1/5"],
                                  ["worst"]])
def test_input_too_deep_to_recurse_is_usage_error(tmp_path, argv):
    """A 1,100-vertex path has 3 * 2^1099 colorings, far past the
    enumeration cap: one error line naming the cap and exit 2, not a
    traceback, and no recursion limit on the way there (`worst` first looks
    for the path's automorphisms)."""
    n = 1100
    graph = tmp_path / "path.txt"
    graph.write_text(f"vertices {n}\n"
                     + "".join(f"edge {v} {v + 1} 1\n" for v in range(n - 1)))
    proc = subprocess.run(
        [sys.executable, "-m", "flexdp.cli", argv[0], str(graph), *argv[1:]],
        capture_output=True, text=True, env=subprocess_env(), timeout=300)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "input too large to enumerate" in proc.stderr


def _memory_capped():
    """Cap the child's address space at 1 GiB, so that a graph built at the
    requested size fails with MemoryError instead of exhausting the host."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, prefix", [
    (["gen", "im", "--m", "100000000"], ""),
    (["mad", "{big}"], "{big}: "),
], ids=["gen", "file"])
def test_huge_vertex_count_is_usage_error(tmp_path, argv, prefix):
    """A vertex count above MAX_VERTICES, asked of `gen` or read from a
    graph file, exits 2 with one error line before a list of that size is
    built."""
    big = tmp_path / "big.txt"
    big.write_text("vertices 1000000000\n")
    argv = [a.format(big=big) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "flexdp.cli", *argv], capture_output=True,
        text=True, env=subprocess_env(), timeout=300, preexec_fn=_memory_capped)
    count = 200000001 if argv[0] == "gen" else 1000000000
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: {prefix.format(big=big)}vertex count "
                           f"{count} outside 0..{MAX_VERTICES}\n")
