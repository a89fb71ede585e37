"""Self-test of the benchmark at toy size (embed/hidden 16), in a few seconds.

    python3 bench/selftest.py

Checks, for every workload, that an untraced run prints exactly the
end-to-end metrics of ``BENCHMARK.json`` and a traced run exactly its
per-layer metrics, each with its unit, and that both pass their checks; and
that an output with one letter altered is counted as failed and the run is
not reported as correct.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import sys

import harness
import run

SEED = 7


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(harness.WORKLOADS),
           "BENCHMARK.json workloads differ from the harness")
    for workload in harness.WORKLOADS:
        for trace in (0, 1):
            rec = run.run(workload, SEED, 0.5, bool(trace), dims=harness.SMALL)
            units = {k: v["unit"] for k, v in rec["metrics"].items()}
            expect(units == wanted[trace],
                   f"{workload} trace {trace}: metrics {sorted(set(units) ^ set(wanted[trace]))}"
                   " missing or unexpected, or units differ")
            expect(rec["correct"] and rec["failed"] == 0 and rec["attempted"] > 0,
                   f"{workload} trace {trace}: clean run not correct: {rec['checks']}")
        rec = run.run(workload, SEED, 0.5, False, dims=harness.SMALL, tamper=True)
        expect(rec["failed"] > 0 and rec["checks"]["failed_share"] > 0 and not rec["correct"],
               f"{workload}: an altered letter went unnoticed")
        print(f"selftest ok: {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
