"""The benchmark's workloads: inputs made from a seed, and the `prefdiff`
CLI commands one timed repetition runs.

Every workload trains and evaluates, so every end-to-end metric has a value
on every workload; the workloads differ in which layer the time goes to.
All inputs come from `synthetic.generate_pair`, where every user is in both
domains and rates `ratings_per_user` distinct items in each, so the counts
of examples, steps, users and predictions follow from the shape alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    n_users: int
    n_items: int
    ratings_per_user: int
    fraction: float = 0.2     # share of users held out as cold-start test users

    @property
    def n_test(self) -> int:
        # data.split_cold_start: round(fraction * |overlap|), half up
        return int(math.floor(self.fraction * self.n_users + 0.5))

    @property
    def n_examples(self) -> int:
        return (self.n_users - self.n_test) * self.ratings_per_user

    @property
    def n_predictions(self) -> int:
        return self.n_test * self.ratings_per_user


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    config: dict                    # run-config keys shared by train and eval
    evals: tuple[tuple[float, int], ...]   # (omega, t_prime) per eval command
    train_in_setup: bool = False    # the checkpoint is set-up, not timed work

    @property
    def epochs(self) -> int:
        return int(self.config["epochs"])

    @property
    def steps_per_train(self) -> int:
        return math.ceil(self.shape.n_examples / int(self.config["batch_size"])) * self.epochs


C8 = Shape(n_users=2000, n_items=300, ratings_per_user=10)
# The same users with 200 of them held out, so that a run holds several
# repetitions of the three evaluations.
C8_EVAL = Shape(n_users=2000, n_items=300, ratings_per_user=10, fraction=0.1)
C8_MODEL = {"d1": 16, "hidden": 64, "T": 50, "max_history_len": 10,
            "batch_size": 128}

WORKLOADS = {
    w.name: w for w in (
        # Acceptance-criterion-8 size with the training cut to 1 of its 10
        # epochs (125 steps), then a short guided evaluation.
        Workload("train_c8", C8, {**C8_MODEL, "epochs": 1}, evals=((2.0, 10),)),
        # Forward-only batch-1 denoiser work: 200 users x 50 steps x (1, 2, 2)
        # denoiser calls; omega=0 takes the single-call short-circuit.
        Workload("eval_c8_omega", C8_EVAL, {**C8_MODEL, "epochs": 1},
                 evals=((0.0, 50), (1.0, 50), (2.0, 50)), train_in_setup=True),
    )
}


def config_text(w: Workload, seed: int, data_dir, omega: float, t_prime: int) -> str:
    """Run config of one command; train and eval configs of a workload
    differ only in the inference keys, omega and t_prime."""
    keys = {"source_path": data_dir / "source.tsv",
            "target_path": data_dir / "target.tsv",
            "fraction": w.shape.fraction, "seed": seed, **w.config,
            "omega": omega, "t_prime": t_prime}
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def expected_counts(w: Workload) -> dict[str, int]:
    """Span call counts one traced repetition must show, from arithmetic:
    the guided model calls the denoiser twice per reverse step when
    omega > 0, once otherwise."""
    n_test = w.shape.n_test
    steps = 0 if w.train_in_setup else w.steps_per_train
    per_eval = [(n_test * t, 2 if omega > 0 else 1) for omega, t in w.evals]
    evals = len(w.evals)
    return {
        "trainer.train_step.calls": steps,
        "autodiff.backward.calls": steps,
        "encoder.encode_batch.calls": steps + evals * n_test,
        "encoder.encode_history.calls": evals * n_test,
        "evaluate.infer_user.calls": evals * n_test,
        "diffusion.reverse_step.calls": sum(r for r, _ in per_eval),
        "diffusion.denoise.calls": steps + sum(r * c for r, c in per_eval),
        "data.load_ratings.calls": 2 * (evals + (not w.train_in_setup)),
    }
