"""CLI: exit codes, output formats, and file round-trips."""
import json
import re

import pytest

from flexdp.cli import run
from flexdp.covers import parse_cover
from flexdp.graphs import gen_family, parse_graph, serialize_graph


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "flex", "/nonexistent/graph.txt")
    assert code == 2


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


def test_theorem_check_zero_budget_is_usage_error(capsys):
    code, _, err = invoke(capsys, "theorem-check", "--max-vertices", "2",
                          "--budget", "0")
    assert code == 2 and err.startswith("error:")


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


def test_worst_budget_cut_exits_3(tmp_path, capsys):
    graph = tmp_path / "k4.txt"
    run(["gen", "k4", "--out", str(graph)])
    code, out, _ = invoke(capsys, "worst", str(graph), "--budget", "10")
    assert code == 3
    assert "classes = 216 (incomplete: evaluated 10)" in out
    code, out, _ = invoke(capsys, "worst", str(graph), "--budget", "216")
    assert code == 0
    assert "classes = 216\n" in out
