"""Write ``reference/dot_lines.json``: the dotted form of every bundled
sentence under the dot workload's model, at the paper's size and at the
self-test's small size.

    python3 bench/make_reference.py

The dot workload scores ``label_match`` against these lines.  Rerun only
when a change to the program is meant to change its predictions.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import harness
import inputs
import run


def main() -> int:
    hebdot = run._import_hebdot()
    pool = inputs.sentence_pool(run.ROOT)
    models = []
    for dims in (harness.PAPER, harness.SMALL):
        work = run.WORK / "reference"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        model = harness._save_model(work, dims, harness.MODEL_SEED)
        feed = harness.LineFeed([line + "\n" for line in pool], math.inf)
        cmd = harness.run_command(hebdot, ["dot", "--model", str(model)], feed, False)
        shutil.rmtree(work)
        out = cmd.out.splitlines()
        if cmd.code != 0 or len(out) != len(pool):
            print(f"dot failed at {dims}", file=sys.stderr)
            return 1
        models.append({"seed": harness.MODEL_SEED, "dims": dims, "lines": dict(zip(pool, out))})
    path = run.ROOT / "bench" / "reference" / "dot_lines.json"
    text = json.dumps({"models": models}, ensure_ascii=False, indent=1)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"{len(pool)} lines x {len(models)} models -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
