"""Time one batch-1 denoiser call and one batch-1 guided reverse step, per
call, at one or more source checkouts, alternating between them.

    python3 tools/rollout_micro.py --src src --src ../parent-checkout/src
    python3 tools/rollout_micro.py --src src --calls 20 --repeats 1

Each `--src` is a directory holding the `prefdiff` package. The model is
the main wiring as `init_params` builds it at criterion-8 sizes (2,000
users, 300 items in each domain, d1 = 16, hidden = 64, T = 50, float32).
One cold-start rollout of `evaluate.infer_user`, at T' = T, runs with
`evaluate.reverse_step` wrapped to record the arguments of its first step,
so each checkout is timed on the operands its own rollout passes. Three
calls are timed on those arguments:

- `denoise`: one conditional denoiser call, B = 1;
- `reverse_step_omega0`: one reverse step at omega = 0 (one denoiser call);
- `reverse_step_omega2`: one reverse step at omega = 2 (two denoiser calls).

A round starts one new process per checkout, in the order given on even
rounds and in reverse on odd ones, so a drift of the host's speed falls on
every checkout alike. Each process times `--calls` back-to-back calls of
each of the three, after as many untimed ones, with BLAS pinned to one
thread. The best per-call time over `--repeats` rounds is printed as TSV on
standard output: `src`, `call` and `us` (microseconds per call).
Only the standard library and numpy are used.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
CALLS = ("denoise", "reverse_step_omega0", "reverse_step_omega2")


def time_checkout(calls: int) -> dict[str, float]:
    """Per-call microseconds of each of CALLS, for the prefdiff package on
    sys.path; one timed run of `calls` calls each."""
    from prefdiff import evaluate
    from prefdiff.config import RunConfig
    from prefdiff.diffusion import denoise, reverse_step
    from prefdiff.params import init_params
    from prefdiff.rng import make_rng

    cfg = RunConfig(d1=16, hidden=64, T=50, max_history_len=10, omega=2.0)
    params = init_params(cfg, 2000, 300, 300)
    u_init = params["user_emb"].data[0]
    h = make_rng(1, 0).standard_normal(cfg.d1).astype(u_init.dtype)
    steps = []

    def recording(*args):
        steps.append(args)
        return reverse_step(*args)

    evaluate.reverse_step = recording
    evaluate.infer_user(u_init, h, cfg, params, make_rng(1, 1))
    x, cond, uncond, t, _, z, _ = steps[0]
    timed = {
        "denoise": lambda: denoise(x, cond, t, params),
        "reverse_step_omega0": lambda: reverse_step(x, cond, uncond, t, 0.0, z, params),
        "reverse_step_omega2": lambda: reverse_step(x, cond, uncond, t, 2.0, z, params),
    }
    us = {}
    for name, call in timed.items():
        for _ in range(calls):
            call()
        start = time.perf_counter()
        for _ in range(calls):
            call()
        us[name] = (time.perf_counter() - start) / calls * 1e6
    return us


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="directory holding a prefdiff package (repeatable)")
    parser.add_argument("--calls", type=int, default=20000,
                        help="timed calls of each kind per process (default 20000)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="rounds over the checkouts; the best is kept (default 5)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.calls < 1 or args.repeats < 1:
        parser.error("--calls and --repeats must be >= 1")
    if args.child:
        sys.path.insert(0, str(args.src[0].resolve()))
        for name, us in time_checkout(args.calls).items():
            print(f"{name}\t{us!r}")
        return 0
    best = {src: dict.fromkeys(CALLS, float("inf")) for src in args.src}
    for round_ in range(args.repeats):
        for src in args.src if round_ % 2 == 0 else args.src[::-1]:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", "--src", str(src),
                 "--calls", str(args.calls)],
                env={**os.environ, **ONE_THREAD}, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{src}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            for line in proc.stdout.splitlines():
                name, us = line.split("\t")
                best[src][name] = min(best[src][name], float(us))
    print("src\tcall\tus")
    for src, times in best.items():
        for name in CALLS:
            print(f"{src}\t{name}\t{times[name]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
