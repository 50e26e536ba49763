"""Smoke check of the benchmark harness on tiny inputs (a few seconds).

    python3 perfbench/smoke.py

For J_1, theorem_check(3, 1) and the (3, 2) graph enumeration it shows
that each gate accepts the program's answer and rejects deliberately wrong
ones, that two traced runs give the same counts, and that the traced self
times add up to the traced wall time; the tracer itself raises if a wrapped
name is not restored.  Exits 1 if any of this fails.
"""
from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

Q = Fraction


def tampered_theorem(rows):
    first = dict(rows[0], epsilon_min="0")
    yield "epsilon_min changed", [first] + rows[1:]
    yield "row dropped", rows[:-1]
    yield "row skipped", rows[:-1] + [dict(rows[-1], status="skipped")]
    yield "row duplicated", rows + rows[:1]


def tampered_flex(report):
    yield "epsilon* off by 1/100", dataclasses.replace(
        report, epsilon_star=report.epsilon_star + Q(1, 100))
    unit = {pair: Q(0) for pair in report.worst_request}
    unit[(0, 0)] = Q(1)
    yield "unit worst request", dataclasses.replace(report, worst_request=unit)
    (phi, w), *rest = report.distribution
    yield "distribution weight moved", dataclasses.replace(
        report, distribution=((phi, w + Q(1, 7)),) + tuple(rest))


def tampered_graphs(kept):
    yield "graph dropped", kept[1:]
    yield "mad changed", [dict(kept[0], mad="3")] + kept[1:]
    flag = "-" if kept[-1]["i_family"] != "-" else "I1"
    yield "I-flag flipped", kept[:-1] + [dict(kept[-1], i_family=flag)]


def gate_cases():
    """(label, verdict on the real answer, [(tamper label, verdict)])."""
    smoke = workloads.SMOKE
    for name, tamper in (("theorem_31", tampered_theorem),
                         ("jm_tight_1", tampered_flex),
                         ("graphs_32", tampered_graphs)):
        wl = smoke[name]
        inputs = wl.build(0)
        output = wl.answer(inputs)
        yield name, wl.check(inputs, output), [
            (label, wl.check(inputs, bad)) for label, bad in tamper(output)]


def traced_counts(wl, inputs) -> tuple[dict, int]:
    tracer = Tracer()
    with tracer.installed():
        with tracer.root():
            wl.answer(inputs)
    counts = {k: v for k, v in tracer.layer_metrics().items()
              if not k.endswith(("_s", "_share"))}
    return counts, tracer.partition_gap_ns()


def main() -> int:
    broken = []
    for name, verdict, tampers in gate_cases():
        if verdict.failed:
            broken.append(f"{name}: gate rejects the program's answer {verdict.problems}")
        for label, bad in tampers:
            status = "rejected" if bad.failed else "ACCEPTED"
            print(f"{name}: {label}: {status} ({bad.failed}/{bad.attempted} failed)")
            if not bad.failed:
                broken.append(f"{name}: gate accepts a tampered answer ({label})")

    for name, wl in workloads.SMOKE.items():
        inputs = wl.build(0)
        first, gap1 = traced_counts(wl, inputs)
        second, gap2 = traced_counts(wl, inputs)
        print(f"{name}: traced counts {first}")
        if first != second:
            broken.append(f"{name}: traced counts differ between runs")
        if gap1 or gap2:
            broken.append(f"{name}: self times miss the wall time by {gap1 or gap2} ns")
    for line in broken:
        print(f"BROKEN: {line}")
    print("smoke check " + ("failed" if broken else "passed"))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
