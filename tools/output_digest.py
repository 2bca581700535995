"""Print the sha256 of every file that the commands which read, train or
evaluate write: `prefdiff ingest --out` on both input pairs,
`prefdiff train` and `prefdiff eval --per-user` over all ten model
selectors, the main model at float64 and the main model under the
variance-weighted diffusion loss, `prefdiff sweep` on each of its five
axes, and `prefdiff variant-bench`.

    python3 tools/output_digest.py > digest.tsv
    python3 tools/output_digest.py --src ../other-checkout/src > other.tsv
    diff digest.tsv other.tsv

For each selector (variants 0-6 and the ablations no_tf, no_gs, no_dm) at
the default dtype float32, for the main model (variant 0) at float64, and
for the main model at float32 with `loss_weighting = variance_weighted`,
the script trains once and evaluates at t_prime 0, 1 and T, each at omega 0
and 2, on `synthetic.generate_pair(n_users=2000, n_items=300,
ratings_per_user=10, seed=5)` with d1=16, T=50, max_history_len=10,
1 epoch, seed 3. The sweeps and the variant bench run on a smaller pair,
`generate_pair(n_users=200, n_items=40, ratings_per_user=5, seed=6)`, with
d1=8, T=10, max_history_len=5, omega 2, 1 epoch, seed 3, so the run stays
short; each sweep takes the values in `SWEEPS`, and the training axes (eta,
T, history_len) train once per value. The commands run in-process through
`prefdiff.cli.main` with one BLAS thread, in a temporary directory that is
the current directory, so the configs hold relative paths; their own
messages go to standard error. Each output line is `path<TAB>sha256` for one file of the
directory (inputs, configs and outputs), sorted by path, 301 lines in all; identical output at two commits means
byte-identical training and evaluation outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the benchmark, so matmul reduction order is fixed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# spelled out, not read from prefdiff.variants.SELECTORS, so that --src also
# runs checkouts older than that table; tests/test_variants.py checks that
# the two agree
SELECTORS = [(v, "none") for v in range(7)] + [(0, a) for a in ("no_tf", "no_gs", "no_dm")]
# (run directory, config lines): every selector at float32, the main model at
# float64, and the main model under the variance-weighted diffusion loss
RUNS = [(f"v{v}_{a}", f"variant = {v}\nablation = {a}\n") for v, a in SELECTORS] \
    + [("v0_none_float64", "variant = 0\nablation = none\ndtype = float64\n"),
       ("v0_none_variance_weighted",
        "variant = 0\nablation = none\nloss_weighting = variance_weighted\n")]
T = 50
T_PRIMES = (0, 1, T)
OMEGAS = (0.0, 2.0)
BASE_CONFIG = ("source_path = source.tsv\ntarget_path = target.tsv\n"
               f"d1 = 16\nT = {T}\nmax_history_len = 10\nepochs = 1\nseed = 3\n")
SMALL_CONFIG = ("source_path = small_source.tsv\ntarget_path = small_target.tsv\n"
                "d1 = 8\nT = 10\nmax_history_len = 5\nepochs = 1\nseed = 3\n"
                "omega = 2.0\n")
SWEEPS = {"t_prime": "0,1,5,10", "omega": "0,1,2", "eta": "0.1,0.5",
          "T": "5,10", "history_len": "3,5"}


def run_all(work: Path) -> None:
    from prefdiff.cli import main
    from prefdiff.synthetic import generate_pair, write_tsv

    def cli(*args: str) -> None:
        with contextlib.redirect_stdout(sys.stderr):
            main(list(args), standalone_mode=False)

    os.chdir(work)
    source, target = generate_pair(n_users=2000, n_items=300, ratings_per_user=10, seed=5)
    write_tsv(source, "source.tsv")
    write_tsv(target, "target.tsv")
    cli("ingest", "source.tsv", "target.tsv", "--out", "ingest.tsv")
    for run, selector in RUNS:
        Path(f"{run}.conf").write_text(BASE_CONFIG + selector)
        cli("train", "--config", f"{run}.conf", "--out", run)
        for t_prime in T_PRIMES:
            for omega in OMEGAS:
                name = f"{run}/eval_t{t_prime}_w{omega:g}"
                Path(f"{name}.conf").write_text(
                    BASE_CONFIG + selector + f"t_prime = {t_prime}\nomega = {omega}\n")
                cli("eval", "--checkpoint", f"{run}/checkpoint", "--config",
                    f"{name}.conf", "--out", f"{name}.tsv", "--per-user")
    source, target = generate_pair(n_users=200, n_items=40, ratings_per_user=5, seed=6)
    write_tsv(source, "small_source.tsv")
    write_tsv(target, "small_target.tsv")
    cli("ingest", "small_source.tsv", "small_target.tsv", "--out", "small_ingest.tsv")
    Path("small.conf").write_text(SMALL_CONFIG)
    for axis, values in SWEEPS.items():
        cli("sweep", "--config", "small.conf", "--sweep-axis", axis,
            "--sweep-values", values, "--out", f"sweep_{axis}.tsv")
    cli("variant-bench", "--config", "small.conf", "--out", "variant_bench.tsv")


def digests(work: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        lines.append(f"{path.relative_to(work).as_posix()}\t"
                     f"{hashlib.sha256(path.read_bytes()).hexdigest()}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the prefdiff package to run "
                             "(default: this checkout's src/)")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        run_all(work)
        print("\n".join(digests(work)))


if __name__ == "__main__":
    main()
