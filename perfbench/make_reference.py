"""Write the stored answers the theorem and graph gates compare against.

    python3 perfbench/make_reference.py

The references hold only invariants (codes, mad, I-flags, epsilon_min,
status), computed once from a commit whose answers were checked; rerun this
only when a change is meant to alter one of those invariants, and say so.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from flexdp import search  # noqa: E402


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for n, mult in ((3, 1), (4, 2)):
        rows = workloads.theorem_rows(search.theorem_check(n, mult))
        bad = [r for r in rows if r["status"] in ("skipped", "counterexample")]
        if bad:
            raise SystemExit(f"refusing to store failing rows: {bad}")
        (workloads.REFERENCE_DIR / f"theorem_{n}{mult}.json").write_text(
            json.dumps(rows, indent=1) + "\n")
    for n, mult in ((3, 2), (5, 1)):
        kept = [{k: g[k] for k in ("code", "mad", "i_family")}
                for g in workloads.graphs_question(n, mult)]
        (workloads.REFERENCE_DIR / f"graphs_{n}{mult}.json").write_text(
            json.dumps(kept, indent=1) + "\n")


if __name__ == "__main__":
    main()
