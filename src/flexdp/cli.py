"""Command-line surface.

Exit codes: 0 success or property verified, 1 a mathematically meaningful
failure (counterexample, violation, infeasibility of a checked property),
2 usage or input errors, including an input that cannot be read, an
input with too many colorings for the iterative coloring enumeration
(`flex`, `critical` or `worst` on a 1,100-vertex path passes
`colorings.ENUMERATION_CAP`: one `error:` line, no traceback), an output
path that cannot be written, and a standard output whose reader closed it
early (`worst G --per-class | head -3` ends with exit 2, no message and
no traceback), 3 budget exhausted with nothing claimed (a theorem check
that skipped a graph without finding a counterexample, a criticality
check that met a component with more cover classes than the budget, or a
worst-cover search that stopped before every class was evaluated, so its
printed minimum is only an upper bound).
Rational values print exactly; with --json they appear as "p/q" strings
and are never rendered as floats.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .covers import (Cover, CoverError, parse_cover, tight_cover,
                     serialize_cover, straight_cover)
from .discharging import NEGATIVE_RULE, run_discharging
from .flexibility import epsilon_star, flex_report_json, fractional_packing
from .gadgets import selftest
from .graphs import (GraphError, GraphFormatError, gen_family, mad,
                     mad_subset_oracle, parse_graph, potential,
                     serialize_graph)
from .rationals import json_rat, parse_rational, rat_str
from .search import (DEFAULT_BUDGET, BudgetExceeded, criticality_check,
                     gap_audit, min_epsilon_over_covers, theorem_check,
                     cover_hash)


class UsageError(Exception):
    pass


def _default_jobs() -> int:
    env = os.environ.get("FLEXDP_JOBS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _load_graph(path: str):
    try:
        return parse_graph(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (GraphFormatError, GraphError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_cover(path, g) -> Cover:
    if path is None:
        return straight_cover(g)
    try:
        return parse_cover(Path(path).read_text(), g)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (GraphFormatError, CoverError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Reject an output path that cannot be written, before anything is."""
    target = Path(path)
    if target.exists():
        writable = not target.is_dir() and os.access(target, os.W_OK)
    else:
        writable = target.parent.is_dir() and os.access(target.parent, os.W_OK)
    if not writable:
        raise UsageError(f"cannot write {path}: not a writable file path")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_mad(args) -> int:
    g, _ = _load_graph(args.graph)
    value = mad(g)
    if args.oracle:
        reference = mad_subset_oracle(g)
        if reference != value:
            print(f"DISAGREEMENT: flow {value} vs subsets {reference}")
            return 1
    _emit(args, {"mad": json_rat(value)}, f"mad = {rat_str(value)}")
    return 0


def cmd_potential(args) -> int:
    g, pa = _load_graph(args.graph)
    subset = range(g.n) if args.subset is None else \
        [int(x) for x in args.subset.split(",") if x != ""]
    value = potential(g, pa, subset)
    _emit(args, {"potential": value}, f"potential = {value}")
    return 0


def cmd_flex(args) -> int:
    g, _ = _load_graph(args.graph)
    cover = _load_cover(args.cover, g)
    report = epsilon_star(g, cover)
    text = f"epsilon_star = {rat_str(report.epsilon_star)}\n"
    if not report.colorable:
        text += "uncolorable: no coloring exists for this cover\n"
    _emit(args, flex_report_json(report), text)
    return 0


def cmd_packing(args) -> int:
    g, _ = _load_graph(args.graph)
    cover = _load_cover(args.cover, g)
    witness = fractional_packing(g, cover)
    if witness is None:
        _emit(args, {"packing": None}, "no fractional packing")
        return 1
    payload = {"packing": [[" ".join(map(str, phi)), json_rat(w)]
                           for phi, w in witness]}
    _emit(args, payload, "fractional packing exists "
          f"({len(witness)} colorings in support)")
    return 0


def cmd_worst(args) -> int:
    g, _ = _load_graph(args.graph)
    report = min_epsilon_over_covers(g, budget=args.budget, jobs=args.jobs,
                                     per_class=args.per_class)
    lines = [f"epsilon_min = {rat_str(report.epsilon_min)}",
             f"classes = {report.classes_total}"
             + ("" if report.complete else
                f" (incomplete: evaluated {report.classes_evaluated})"),
             f"orbits = {report.orbits}",
             f"queries = {report.queries}",
             f"witness_cover = {cover_hash(report.witness_cover)}"]
    if args.per_class and report.per_class_values:
        lines += [f"  class {i}: {rat_str(v)}"
                  for i, (_, v) in enumerate(report.per_class_values)]
    payload = {
        "epsilon_min": json_rat(report.epsilon_min),
        "complete": report.complete,
        "classes": report.classes_total,
        "witness_cover": serialize_cover(report.witness_cover),
    }
    _emit(args, payload, "\n".join(lines))
    return 0 if report.complete else 3


def cmd_gen(args) -> int:
    chains = None
    if args.chains:
        chains = [int(x) for x in args.chains.split(",")]
    g, pa = gen_family(args.kind, m=args.m, chains=chains)
    # an unknown cover kind or an unwritable path fails before anything is written
    if args.cover_out:
        kind = {"c2": "c2x"}.get(args.kind, args.kind)
        cover = tight_cover(kind, g, m=args.m, chains=chains)
    for path in (args.out, args.cover_out):
        if path:
            _check_writable(path)
    graph_text = serialize_graph(g, pa)
    if args.out:
        _write(args.out, graph_text)
    else:
        print(graph_text, end="")
    if args.cover_out:
        _write(args.cover_out, serialize_cover(cover))
    return 0


def cmd_theorem_check(args) -> int:
    report = theorem_check(args.max_vertices, args.max_mult,
                           jobs=args.jobs, budget=args.budget)
    tsv = report.to_tsv()
    if args.tsv:
        _write(args.tsv, tsv)
    else:
        print(tsv, end="")
    summary = report.summary()
    print(f"# note: {report.note}")
    print(f"# summary: {summary}")
    if report.counterexamples:
        print(f"# COUNTEREXAMPLES: {[r.code for r in report.counterexamples]}")
        return 1
    if report.skipped:
        print(f"# skipped (budget): {[r.code for r in report.skipped]}")
        return 3
    return 0


def cmd_discharge(args) -> int:
    g, pa = _load_graph(args.graph)
    report = run_discharging(g, pa)
    print(f"# {NEGATIVE_RULE}")
    print("vertex\tclass\tsigma\tsent\trecv\tfinal")
    cls = report.classification
    for v in range(g.n):
        print(f"{v}\t{cls.classes[v]}\t{cls.sigma[v]}\t{report.sent[v]}"
              f"\t{report.received[v]}\t{report.final[v]}")
    print(f"# sum of final charges = {sum(report.final)} "
          f"(conserved: {report.conserved})")
    for violation in report.assumption_violations:
        print(f"# assumption violated: {violation}")
    if report.ending_positive:
        print(f"# vertices ending positive: {list(report.ending_positive)}")
    return 0


def cmd_gadgets(args) -> int:
    if not args.selftest:
        raise UsageError("gadgets currently only supports --selftest")
    report = selftest(args.samples, args.seed)
    failed = False
    for name, info in report.items():
        ok = info["passed"] == info["samples"]
        failed = failed or not ok
        extra = f" cases={info['cases']}" if "cases" in info else ""
        print(f"{name}: {info['passed']}/{info['samples']} passed{extra}")
    return 1 if failed else 0


def cmd_gap_audit(args) -> int:
    g, pa = _load_graph(args.graph)
    violations = gap_audit(g, pa)
    if not violations:
        print("gap property holds: potential(S) >= 1 + boundary(S) for all S")
        return 0
    for subset in violations:
        print(f"violation: S = {list(subset)} potential = "
              f"{potential(g, pa, subset)} boundary = {g.boundary(subset)}")
    return 1


def cmd_critical(args) -> int:
    g, pa = _load_graph(args.graph)
    eps = parse_rational(args.epsilon)
    verdict = criticality_check(g, pa, eps, budget=args.budget)
    print(f"verdict = {verdict}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexdp",
        description="exact flexibility tools for DP 3-colorable multigraphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cover=False, jobs=False):
        p.add_argument("graph", help="graph file")
        p.add_argument("--json", action="store_true")
        if cover:
            p.add_argument("--cover", help="cover file (default: straight cover)")
        if jobs:
            p.add_argument("--jobs", type=int, default=_default_jobs())
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("mad", help="exact maximum average degree")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against subset enumeration")
    p.set_defaults(func=cmd_mad)

    p = sub.add_parser("potential", help="potential of a vertex subset")
    common(p)
    p.add_argument("--subset", help="comma-separated vertices (default: all)")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("flex", help="epsilon* with primal/dual certificates")
    common(p, cover=True)
    p.set_defaults(func=cmd_flex)

    p = sub.add_parser("packing", help="fractional packing feasibility")
    common(p, cover=True)
    p.set_defaults(func=cmd_packing)

    p = sub.add_parser("worst", help="minimum epsilon* over cover classes")
    common(p, jobs=True)
    p.add_argument("--per-class", action="store_true")
    p.set_defaults(func=cmd_worst)

    p = sub.add_parser("gen", help="generate a named family member")
    p.add_argument("kind", choices=["im", "jm", "s", "h5", "k4", "c2"])
    p.add_argument("--m", type=int)
    p.add_argument("--chains", help="comma-separated diamond counts for kind s")
    p.add_argument("--out", help="graph file to write (default: stdout)")
    p.add_argument("--cover-out", help="also write the adversarial cover")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("theorem-check", help="desk-scale exhaustive check")
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--max-mult", type=int, default=2)
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--tsv", help="write the per-graph table to a file")
    p.set_defaults(func=cmd_theorem_check)

    p = sub.add_parser("discharge", help="run the charge transfer and audit")
    p.add_argument("graph")
    p.set_defaults(func=cmd_discharge)

    p = sub.add_parser("gadgets", help="gadget identity self-tests")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gadgets)

    p = sub.add_parser("gap-audit", help="subsets violating the potential gap")
    p.add_argument("graph")
    p.set_defaults(func=cmd_gap_audit)

    p = sub.add_parser("critical", help="criticality verdict at an epsilon")
    p.add_argument("graph")
    p.add_argument("--epsilon", required=True, help="exact rational, e.g. 1/5")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_critical)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too large: the search exceeded Python's recursion "
              "limit", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3


def _stdout_to_devnull() -> None:
    """The reader of stdout has gone: point its descriptor at os.devnull, so
    the flush of what is still buffered at interpreter exit cannot raise."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (OSError, ValueError):
        pass  # a stdout without a descriptor has nothing to flush to one
    finally:
        os.close(devnull)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
