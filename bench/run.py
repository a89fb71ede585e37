"""hebdot benchmark: one workload, measured end to end or traced per module.

    python3 bench/run.py --workload dot-lines-paper --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It builds the workload's inputs from
the seed and the bundled corpus under ``.bench_work/``, drives the
``hebdot`` commands in this process through ``hebdot.cli.main`` for the
given seconds, checks every output, and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones in ``BENCHMARK.json``;
with ``--trace 1`` commands alternate untraced and traced, and the metrics
are the per-module figures of the traced ones plus the tracing overhead.
The full record, with the machine it ran on, goes to
``.bench_work/results/``, next to the spans of a traced run.

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``train-paper``: ``hebdot train`` at the paper's dimensions (embed 400,
  hidden 400, 2 layers, batch 64, chunk 80), two full batches per command.
- ``dot-lines-paper``: ``hebdot dot`` at the paper's dimensions, one
  sentence per stdin line, pulled by the program one line at a time.
- ``eval-docs-small``: ``hebdot eval`` at embed/hidden 16 on whole gold
  documents.

End-to-end metrics, on every workload:

- ``setup_s``: median time to load the checkpoint (dot, eval), or the
  corpus splits plus ``init_params`` (train), timed before and after the
  commands.
- ``chars_per_s``: letters (marks removed, whitespace runs collapsed) per
  second of command wall time, median over commands; for train, training
  letters times epochs.
- ``line_ms_p50``, ``line_ms_p90``: from handing the program its input to
  each stdout line's newline.  dot answers line by line; train and eval
  print once they finish, so there it is the command's wall time.
- ``peak_rss_mb``: the process's peak resident set.

Failed checks go to ``failed`` (failed over attempted is ``failed_share``,
an operation being a step, a line or a document).  ``label_match`` on dot,
the share of decisions equal to ``reference/dot_lines.json``, and
``final_loss`` on train are in the record's ``checks``; ``correct`` needs no
failure and, on dot, every decision matched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))

# BLAS reads its thread count when numpy loads, so set it before any import:
# one thread per processor this process may run on, never more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import harness  # noqa: E402  (after the BLAS settings)
import tracing  # noqa: E402


def _import_hebdot():
    """The checkout's own hebdot, never an installed copy."""
    src = ROOT / "src"
    if not (src / "hebdot" / "__init__.py").is_file():
        sys.exit(f"bench: no hebdot sources at {src}; run from a full checkout")
    if not (ROOT / "tests" / "data" / "corpus").is_dir():
        sys.exit("bench: no bundled corpus at tests/data/corpus")
    sys.path.insert(0, str(src))
    import hebdot
    import hebdot.cli

    if Path(hebdot.__file__).resolve().parent != src / "hebdot":
        sys.exit(f"bench: imported hebdot from {hebdot.__file__}, not {src}")
    return hebdot


def machine_record(dims: dict, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": NPROC,
        "platform": platform.platform(),
        "dims": dims,
        "seed": seed,
    }


def end_to_end(res) -> dict:
    lat_ms = [x * 1e3 for x in res.latencies]
    return {
        "setup_s": (statistics.median(res.setup), "s"),
        "chars_per_s": (statistics.median(res.chars_per_s), "1/s"),
        "line_ms_p50": (statistics.median(lat_ms), "ms"),
        "line_ms_p90": (harness.percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(res, tracer) -> dict:
    commands = len(res.traced_walls)
    out = tracing.layer_metrics(tracer.spans, commands)
    per_char_traced = sum(res.traced_walls) / res.traced_chars
    per_char_plain = sum(res.untraced_walls) / res.untraced_chars
    chars_per_command = res.traced_chars / commands
    out["cli.untraced_main_s"] = (per_char_plain * chars_per_command, "s")
    out["cli.trace_overhead_s"] = ((per_char_traced - per_char_plain) * chars_per_command, "s")
    out["cli.trace_overhead_share"] = (per_char_traced / per_char_plain - 1.0, "share")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        dims: dict | None = None, tamper: bool = False) -> dict:
    """Run one workload; returns the full record, result fields included."""
    hebdot = _import_hebdot()
    fn, default_dims = harness.WORKLOADS[workload]
    dims = dims or default_dims
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer()
    try:
        res = fn(hebdot, ROOT, work, seed, seconds, dims, trace, tracer, tamper)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = per_layer(res, tracer) if trace else end_to_end(res)
    checks = {"failed_share": res.failed / res.attempted, **res.checks}
    correct = res.failed == 0 and checks.get("label_match", 1.0) == 1.0
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "machine": machine_record(dims, seed),
        "checks": checks,
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {"setup": len(res.setup), "commands": len(res.untraced_walls),
                    "latencies": len(res.latencies)},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-s{seed}-t{int(trace)}"
    if trace:
        tracer.write(results / f"{stem}-spans.jsonl")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: record[k] for k in ("checks", "samples", "machine")}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
