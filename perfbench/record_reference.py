"""Record the quality reference that `run.py` checks `final_loss` and `mae`
against: one untimed repetition of every workload on each of the seeds
0..N-1.

    python3 perfbench/record_reference.py --seeds 20

Run it from the root of a checkout of the commit the reference should
describe. It rewrites every recorded value and keeps the tolerance.
`run.py` folds `--seed` onto the recorded seeds, so N also sets how many
distinct inputs a workload has.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy is imported
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    path = run.BENCH_DIR / "reference.json"
    ref = run.load_reference()
    ref["values"] = {}
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    host = run.HostSpeed()
    for name, w in sorted(WORKLOADS.items()):
        values = ref["values"][name] = {}
        for seed in range(args.seeds):
            work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.ROOT / ".bench_work"))
            try:
                srep = run.Rep()
                data_dir = run.setup(w, seed, work, 0, srep, host)
                rep = run.run_rep(w, data_dir, work / "rep", host)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            problems = srep.problems + rep.problems
            if problems or srep.failed or rep.failed:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            values[str(seed)] = run.quality(rep, srep)
            print(f"{name} seed {seed}: {values[str(seed)]}", flush=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
