"""prefdiff benchmark: one workload, run in this process through the real CLI.

    python3 perfbench/run.py --workload train_c8 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. The inputs are made from `--seed`. Set-up and a timed repetition of
the workload's CLI commands alternate until the repetitions add up to
`--seconds` and set-up has run at least SETUP_MIN_REPEATS times. Each is
timed between two runs of a fixed probe kernel, and its times are scaled to
one host speed. Every output is checked.
`--trace 0` reports the end-to-end metrics, `--trace 1` one untraced and
one traced repetition and the per-layer metrics. The last line of standard
output is the result as JSON; the lines before it record the environment
and any failed check.
"""
from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, config_text, expected_counts  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# An untraced run sets up at least this many times; setup_s is their median.
SETUP_MIN_REPEATS = 8
# `probe_host` runs its kernel PROBE_LOOPS times, which took PROBE_REF_S on a
# 2-vCPU Intel Xeon VM at about its fastest. Every time is reported at that
# speed.
PROBE_LOOPS = 2000
PROBE_REF_S = 0.15


@dataclass
class Rep:
    """One timed repetition of a workload's commands."""
    wall_s: float = 0.0
    train_s: float = 0.0
    eval_s: float = 0.0
    scale: float = 1.0      # from HostSpeed.scale
    final_losses: list[float] = field(default_factory=list)
    maes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def command_s(self) -> float:
        """Wall time of the CLI commands alone."""
        return self.train_s + self.eval_s


def cli(args: list[str]) -> None:
    """`prefdiff <args>` in this process, its console output discarded."""
    from prefdiff.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main.main(args=args, prog_name="prefdiff", standalone_mode=False)


def write_configs(w: Workload, seed: int, data_dir: Path) -> None:
    (data_dir / "train.conf").write_text(
        config_text(w, seed, data_dir, 0.0, -1), encoding="utf-8")
    for k, (omega, t_prime) in enumerate(w.evals):
        (data_dir / f"eval{k}.conf").write_text(
            config_text(w, seed, data_dir, omega, t_prime), encoding="utf-8")


def timed(rep: Rep, attr: str, args: list[str]) -> None:
    """Run one CLI command, adding its wall time to `rep.<attr>`."""
    start = time.perf_counter()
    try:
        cli(args)
    finally:
        setattr(rep, attr, getattr(rep, attr) + time.perf_counter() - start)


def train(w: Workload, data_dir: Path, out: Path, rep: Rep) -> Path | None:
    """One `prefdiff train`; returns the checkpoint, or None if it failed."""
    steps = w.steps_per_train
    rep.attempted += steps
    try:
        timed(rep, "train_s", ["train", "--config", str(data_dir / "train.conf"),
                               "--out", str(out)])
        rows = [[float(x) for x in line.split("\t")[1:]] for line in
                (out / "loss.tsv").read_text(encoding="utf-8").splitlines()[1:]]
        final = rows[-1][2]
    except Exception as exc:  # a failed command is counted, not fatal
        rep.failed += steps
        rep.problems.append(f"train: {type(exc).__name__}: {exc}")
        return None
    if len(rows) != w.epochs:
        rep.problems.append(f"train: {len(rows)} loss rows, expected {w.epochs}")
    for row in rows:
        if not all(math.isfinite(x) for x in row):
            rep.failed += steps // w.epochs
            rep.problems.append(f"train: non-finite loss row {row}")
    rep.final_losses.append(final)
    return out / "checkpoint"


def evaluate(w: Workload, data_dir: Path, k: int, ckpt: Path,
             out: Path, rep: Rep) -> None:
    """One `prefdiff eval --per-user`, checked against the split."""
    n_test = w.shape.n_test
    rep.attempted += n_test
    try:
        timed(rep, "eval_s", ["eval", "--checkpoint", str(ckpt), "--config",
                              str(data_dir / f"eval{k}.conf"), "--per-user",
                              "--out", str(out)])
        report = dict(line.split("\t") for line in
                      out.read_text(encoding="utf-8").splitlines()[1:])
        mae, rmse = float(report["mae"]), float(report["rmse"])
        n_predictions = int(report["n_predictions"])
        users = [[float(x) for x in line.split("\t")[1:3]] for line in
                 Path(f"{out}.per_user").read_text(encoding="utf-8").splitlines()[1:]]
    except Exception as exc:
        rep.failed += n_test
        rep.problems.append(f"eval #{k}: {type(exc).__name__}: {exc}")
        return
    if not (math.isfinite(mae) and math.isfinite(rmse)):
        rep.problems.append(f"eval #{k}: MAE {mae} RMSE {rmse}")
    if n_predictions != w.shape.n_predictions:
        rep.problems.append(f"eval #{k}: {n_predictions} predictions, "
                            f"expected {w.shape.n_predictions}")
    if len(users) != n_test:
        rep.problems.append(f"eval #{k}: {len(users)} users scored, expected {n_test}")
    bad = sum(not all(math.isfinite(x) for x in u) for u in users)
    rep.failed += bad + max(n_test - len(users), 0)
    rep.maes.append(mae)


def probe_host() -> float:
    """Wall time of a fixed kernel of small numpy operations in a Python
    loop, the kind of work the workloads do; it changes only with the
    host's speed."""
    import numpy as np
    rng = np.random.default_rng(0)
    x, w, v = rng.random((128, 16)), rng.random((16, 64)), rng.random((64, 1))
    z, rows = np.zeros((300, 16)), rng.integers(0, 300, 128)
    start = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        h = np.maximum(x @ w, 0.0)
        o = h @ v
        gh = ((o - 1.0) @ v.T) * (h > 0)
        np.add.at(z, rows, gh @ w.T)
        z *= 0.999
        _ = [float(t) for t in o[:16, 0]]
    return time.perf_counter() - start


class HostSpeed:
    """Runs `probe_host` around and between pieces of timed work.

    The speed of a shared host drifts by a third and more within minutes,
    and work like the benchmark's slows with it; a run that falls in a slow
    stretch reads slow in every repetition. So a piece of work (a set-up or
    a repetition) is scaled by PROBE_REF_S over the mean of the probes from
    the one just before it to the one `scale` runs just after it."""

    def __init__(self) -> None:
        self.probes = [probe_host()]
        self._first = 0

    def probe(self) -> None:
        """One more sample of the host's speed within the current piece."""
        self.probes.append(probe_host())

    def scale(self) -> float:
        """Ends the current piece and returns its scale factor."""
        self.probes.append(probe_host())
        window = self.probes[self._first:]
        self._first = len(self.probes) - 1
        return PROBE_REF_S / statistics.fmean(window)


def setup(w: Workload, seed: int, work: Path, index: int, rep: Rep,
          host: HostSpeed) -> Path:
    """Inputs from the seed, configs, and (for an evaluation workload) the
    checkpoint, trained with the code under test, the host probed before
    training."""
    from prefdiff.synthetic import generate_pair, write_tsv
    data_dir = work / f"setup{index}"
    data_dir.mkdir()
    s = w.shape
    source, target = generate_pair(n_users=s.n_users, n_items=s.n_items,
                                   latent_dim=8, ratings_per_user=s.ratings_per_user,
                                   noise_std=0.1, seed=seed)
    write_tsv(source, data_dir / "source.tsv")
    write_tsv(target, data_dir / "target.tsv")
    write_configs(w, seed, data_dir)
    if w.train_in_setup:
        host.probe()
        train(w, data_dir, data_dir / "train", rep)
    return data_dir


def run_rep(w: Workload, data_dir: Path, out: Path, host: HostSpeed) -> Rep:
    """One repetition of the workload's commands, the host probed between
    them."""
    rep = Rep()
    out.mkdir()
    start = time.perf_counter()
    if w.train_in_setup:
        ckpt = data_dir / "train" / "checkpoint"
    else:
        ckpt = train(w, data_dir, out / "train", rep)
    for k in range(len(w.evals)):
        if k or not w.train_in_setup:
            host.probe()
        if ckpt is None:
            rep.attempted += w.shape.n_test
            rep.failed += w.shape.n_test
        else:
            evaluate(w, data_dir, k, ckpt, out / f"eval{k}.tsv", rep)
    rep.wall_s = time.perf_counter() - start
    rep.scale = host.scale()
    shutil.rmtree(out)
    return rep


def digest(data_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(data_dir.rglob("*")):
        # configs and their echo name the set-up directory itself
        if path.is_file() and path.suffix not in (".conf", ".echo"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def quality(rep: Rep, setup_rep: Rep) -> dict[str, float]:
    losses = rep.final_losses or setup_rep.final_losses
    return {"final_loss": statistics.fmean(losses) if losses else math.nan,
            "mae": statistics.fmean(rep.maes) if rep.maes else math.nan}


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))


def input_seed(ref: dict, name: str, seed: int) -> int:
    """The seed the inputs are made from: `--seed` folded onto the seeds
    0..n-1 that the reference records for this workload, so that the
    reference check applies to every `--seed`."""
    return seed % max(len(ref["values"].get(name, {})), 1)


def check_reference(ref: dict, name: str, seed: int,
                    values: dict[str, float]) -> list[str]:
    recorded = ref["values"].get(name, {}).get(str(seed))
    if recorded is None:
        return [f"no reference recorded for {name} seed {seed}"]
    problems = []
    for key, tol in ref["relative_tolerance"].items():
        got, want = values[key], recorded[key]
        if not abs(got - want) <= tol * abs(want):
            problems.append(f"{key} {got!r} differs from reference {want!r} "
                            f"by more than {tol:g} relative")
    return problems


def environment() -> dict:
    import numpy as np
    env = {"commit": _git_commit(), "cpu": _cpu_model(),
           "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
           "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                            for p in sorted((ROOT / "src").rglob("*.py")))}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        env["blas"] = "unknown"
    return env


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
        names: list[str], ref: dict):
    problems: list[str] = []
    setups: list[Rep] = []
    setup_times: list[float] = []
    reps: list[Rep] = []
    data_dir = None
    first_digest = None
    min_setups = 1 if trace else SETUP_MIN_REPEATS
    host = HostSpeed()

    def measuring() -> bool:
        return not reps or not trace and sum(r.wall_s for r in reps) < seconds

    # Each set-up is followed by a repetition until the repetitions add up
    # to `seconds`; every one is scaled to one host speed by `host`.
    while measuring() or len(setup_times) < min_setups:
        srep = Rep()
        n_probes = len(host.probes)
        t0 = time.perf_counter()
        d = setup(w, seed, work, len(setup_times), srep, host)
        elapsed = time.perf_counter() - t0 - sum(host.probes[n_probes:])
        srep.scale = host.scale()
        setup_times.append(elapsed * srep.scale)
        setups.append(srep)
        problems += [f"set-up: {p}" for p in srep.problems]
        if data_dir is None:
            data_dir, first_digest = d, digest(d)
        else:
            if digest(d) != first_digest:
                problems.append("set-up is not deterministic: inputs or checkpoint differ")
            shutil.rmtree(d)
        if measuring():
            reps.append(run_rep(w, data_dir, work / f"rep{len(reps)}", host))

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            reps.append(run_rep(w, data_dir, work / "traced", host))
        finally:
            tracer.uninstall()

    first = quality(reps[0], setups[0])
    for rep in reps:
        problems += rep.problems
    if not all(math.isfinite(x) for x in first.values()):
        problems.append(f"non-finite quality: {first}")
    else:
        problems += [f"repetitions disagree: {q} vs {first}" for q in
                     (quality(rep, setups[0]) for rep in reps) if q != first]
        problems += check_reference(ref, w.name, seed, first)

    attempted = sum(r.attempted for r in reps + setups)
    failed = sum(r.failed for r in reps + setups)
    if trace:
        metrics = tracer.metrics(names, reps[0].command_s * reps[0].scale,
                                  reps[1].command_s * reps[1].scale)
        for name, want in expected_counts(w).items():
            got = metrics.get(name)
            if got is not None and got != want:
                problems.append(f"traced {name} = {got:g}, arithmetic gives {want}")
        if tracer.absent:
            print("absent: " + json.dumps(sorted(set(tracer.absent))))
        return problems, attempted, failed, metrics, {}

    n_trained = w.shape.n_examples * w.epochs
    trains = setups if w.train_in_setup else reps
    n_scored = w.shape.n_test * len(w.evals)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(r.command_s * r.scale for r in reps),
        "train_examples_per_s": statistics.median(
            rate(n_trained, r.train_s * r.scale) for r in trains),
        "eval_users_per_s": statistics.median(
            rate(n_scored, r.eval_s * r.scale) for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **first,
    }
    return (problems, attempted, failed, {k: metrics[k] for k in names},
            {"repetitions": len(reps), "setups": len(setup_times),
             "probe_s": [round(t, 3) for t in host.probes],
             "scaled_rep_s": [round(r.command_s * r.scale, 3) for r in reps],
             "scaled_setup_s": [round(t, 3) for t in setup_times]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "prefdiff" / "__init__.py").is_file():
        print(f"no prefdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import prefdiff
    if Path(prefdiff.__file__).resolve().parent != ROOT / "src" / "prefdiff":
        print(f"prefdiff imported from {prefdiff.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))

    print("env " + json.dumps(environment()))
    w = WORKLOADS[args.workload]
    ref = load_reference()
    seed = input_seed(ref, w.name, args.seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=ROOT / ".bench_work"))
    try:
        problems, attempted, failed, metrics, info = run(
            w, seed, args.seconds, bool(args.trace), work, list(units), ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("check failed: " + p)
    print("info " + json.dumps({"input_seed": seed, **info}))
    # a failed run has already set `correct` false; keep its line valid JSON
    metrics = {k: v if math.isfinite(v) else 0.0 for k, v in metrics.items()}
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
