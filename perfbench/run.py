"""Run one benchmark workload against flexdp and print its metrics.

    python3 perfbench/run.py --workload theorem_42 --seed 1 --seconds 25 --trace 0

Untraced (`--trace 0`): answer the workload's question once to warm up,
then time it as many times as fit in `--seconds` (at least once), with a
run of the yardstick (yardstick.py) before the first timed answer and after
each.  Each answer's wall and CPU time is divided by the mean of the
yardstick runs on either side, which takes the host's changing speed out
of it, and reported as the median over the answers in
yardstick.REFERENCE_S seconds.  Set-up time is measured the same way in
several fresh interpreters; peak resident memory as is.  The medians of
the times as measured are printed as well.  Traced
(`--trace 1`): answer the question once untraced and once with a span
around every call into a layer, and report the per-layer counts and times.
Every answer goes through the workload's correctness gate.  `--workload
all` runs each workload in its own process.

The last line of standard output is the result as one JSON object; the
lines before it give the metrics by name with their units, the machine
and the input digest.  A fuller record, and the spans of a traced run, are
written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_share")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "cpu_model": cpu_model(),
            "commit": git_commit()}


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """User plus system seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(set-up s, yardstick s) of SETUP_SAMPLES fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        setup, ref = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(ref)))
    return samples


def normalised(pairs) -> float:
    """Median of measured / yardstick over (measured, yardstick) pairs, in REFERENCE_S seconds."""
    return statistics.median(t / ref for t, ref in pairs) * yardstick.REFERENCE_S


def answer(workload, inputs):
    """One timed question: (output or None, exception or None, wall s, cpu s)."""
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    try:
        output, error = workload.answer(inputs), None
    except Exception as exc:  # a failed operation, counted by the gate
        output, error = None, exc
    return output, error, time.perf_counter() - wall0, cpu_seconds() - cpu0


def judge(workload, inputs, output, error):
    from workloads import Verdict
    ops = workload.operations(inputs)
    if error is not None:
        return Verdict(ops, ops, (f"{type(error).__name__}: {error}",))
    try:
        return workload.check(inputs, output)
    except Exception as exc:  # a malformed answer that the gate cannot read
        return Verdict(ops, ops, (f"gate raised {type(exc).__name__}: {exc}",))


def run_untraced(workload, inputs, seconds: float, name: str, seed: int):
    # One checked warm-up answer, then timed answers, each between two
    # yardstick runs; all of it fits in `seconds`.
    start = time.perf_counter()
    output, error, warmup_s, _ = answer(workload, inputs)
    verdicts = [judge(workload, inputs, output, error)]
    passes = []
    ref_wall, ref_cpu = yardstick.run()
    while True:
        output, error, wall, cpu = answer(workload, inputs)
        verdicts.append(judge(workload, inputs, output, error))
        next_wall, next_cpu = yardstick.run()
        passes.append({"wall_s": wall, "cpu_s": cpu,
                       "ref_wall_s": (ref_wall + next_wall) / 2,
                       "ref_cpu_s": (ref_cpu + next_cpu) / 2})
        ref_wall, ref_cpu = next_wall, next_cpu
        if time.perf_counter() - start + wall + ref_wall > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = setup_seconds(name, seed)
    metrics = {"wall_s": normalised((p["wall_s"], p["ref_wall_s"]) for p in passes),
               "cpu_s": normalised((p["cpu_s"], p["ref_cpu_s"]) for p in passes),
               "setup_s": normalised(setup),
               "peak_rss_mb": peak_mb}
    raw = {"wall_s": statistics.median(p["wall_s"] for p in passes),
           "cpu_s": statistics.median(p["cpu_s"] for p in passes),
           "setup_s": statistics.median(t for t, _ in setup),
           "yardstick_s": statistics.median(p["ref_wall_s"] for p in passes)}
    return metrics, verdicts, {"raw": raw, "warmup_s": warmup_s, "passes": passes,
                               "setup_samples": setup}


def run_traced(workload, inputs, name: str, seed: int):
    from tracer import Tracer
    output, error, plain_wall, _ = answer(workload, inputs)
    verdicts = [judge(workload, inputs, output, error)]
    tracer = Tracer()
    output, error = None, None
    with tracer.installed():
        try:
            with tracer.root():
                output = workload.answer(inputs)
        except Exception as exc:  # a failed operation, counted by the gate
            error = exc
    verdicts.append(judge(workload, inputs, output, error))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / plain_wall - 1
    gap = tracer.partition_gap_ns()
    OUT.mkdir(exist_ok=True)
    run_id = f"{name}-seed{seed}"
    with open(OUT / f"spans-{run_id}.jsonl", "w") as f:
        for sid, span, start, end, parent in tracer.spans:
            f.write(json.dumps({"id": sid, "name": span, "start_ns": start,
                                "end_ns": end, "parent": parent,
                                "workload": name, "run": run_id}) + "\n")
    detail = {"untraced_wall_s": plain_wall, "self_times_s": tracer.self_times(),
              "partition_gap_ns": gap}
    return metrics, verdicts, detail, gap == 0


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    workload = workloads.WORKLOADS[name]
    load_before = os.getloadavg()
    inputs = workload.build(seed)
    digest = workload.digest(inputs)
    if trace:
        metrics, verdicts, detail, consistent = run_traced(workload, inputs, name, seed)
        units = {m: layer_unit(m) for m in metrics}
    else:
        metrics, verdicts, detail = run_untraced(workload, inputs, seconds, name, seed)
        consistent = True
        units = END_TO_END_UNITS
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    problems = [p for v in verdicts for p in v.problems][:10]
    facts = machine_facts()
    facts["loadavg_before"] = load_before
    facts["loadavg_after"] = os.getloadavg()
    result = {"correct": failed == 0 and consistent, "attempted": attempted,
              "failed": failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "input_digest": digest, "machine": facts, "problems": problems,
              "fail_frac": failed / attempted, **detail, "result": result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {name} seed {seed} input digest {digest}")
    print("machine " + json.dumps(facts))
    for m, v in metrics.items():
        print(f"{m} {v:.6g} {units[m]}")
    for m, v in detail.get("raw", {}).items():
        print(f"raw {m} {v:.6g} s (as timed, not normalised)")
    print(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for p in problems:
        print(f"problem: {p}")
    if not consistent:
        print(f"problem: self times miss the traced wall time by {detail['partition_gap_ns']} ns")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process; metrics keyed as workload.metric."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = v
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "flexdp" / "__init__.py").is_file():
        print(f"flexdp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in (*workloads.WORKLOADS, "all"):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
