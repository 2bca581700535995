"""Command-line surface binding the modules into reproducible runs.

All outputs are TSV; every command takes --seed and is bit-reproducible
given identical inputs.
"""
from __future__ import annotations

import os
import sys
from dataclasses import fields, replace

import click

from . import data as data_mod
from . import schedule as schedule_mod
from .config import RunConfig, _coerce, load_config, normalized_text
from .errors import CheckpointError, ConfigurationError, PrefDiffError
from .evaluate import evaluate
from .params import PATH_KEYS, SIZE_KEYS, ModelMeta, load_checkpoint, save_checkpoint
from .trainer import loss_history_tsv, train
from .variants import SELECTORS, lint_pipeline

# the keys an evaluation may set apart from its checkpoint's training run
EVAL_FREE_KEYS = PATH_KEYS + ("seed", "omega", "t_prime")


def _load_run(cfg: RunConfig):
    source = data_mod.load_ratings(cfg.source_path)
    target = data_mod.load_ratings(cfg.target_path)
    split = data_mod.split_cold_start(source, target, cfg.fraction, cfg.seed)
    return source, target, split


def _check_checkpoint(trained: ModelMeta, run: ModelMeta) -> None:
    """Raise one CheckpointError listing every data size, and every config
    key besides EVAL_FREE_KEYS, whose value in the run differs from the checkpoint's."""
    problems = [f"{f.name} is {getattr(trained.cfg, f.name)} in the checkpoint but "
                f"{getattr(run.cfg, f.name)} in the config" for f in fields(RunConfig)
                if f.name not in EVAL_FREE_KEYS
                and getattr(trained.cfg, f.name) != getattr(run.cfg, f.name)]
    problems += [f"{key} is {getattr(trained, key)} in the checkpoint but "
                 f"{getattr(run, key)} in the data" for key in SIZE_KEYS
                 if getattr(trained, key) != getattr(run, key)]
    if problems:
        raise CheckpointError("checkpoint does not match the config: " + "; ".join(problems))


def _lint_and_train(source, target, split, cfg: RunConfig, label: str = ""):
    """Print the config's lint warnings to stderr, each prefixed by `label`, then train."""
    for warning in lint_pipeline(SELECTORS[cfg.variant, cfg.ablation], cfg.eta):
        click.echo(f"warning: {label}{warning}", err=True)
    return train(source, target, split, cfg)


def _emit_table(text: str, out) -> None:
    """Print a TSV table and, when out is given, write it there too."""
    click.echo(text, nl=False)
    if out:
        data_mod.write_atomic(out, text)


class _Commands(click.Group):
    """Reports a package error as one `Error: <Type>: <message>` line and
    exit code 1; with standalone_mode=False the error is raised as is."""

    def main(self, *args, standalone_mode: bool = True, **kwargs):
        try:
            return super().main(*args, standalone_mode=standalone_mode, **kwargs)
        except PrefDiffError as exc:
            if not standalone_mode:
                raise
            click.echo(f"Error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Commands)
def main():
    """Preference-guided diffusion for cold-start cross-domain recommendation."""


@main.command()
@click.argument("source_path", type=click.Path())
@click.argument("target_path", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Write stats TSV here.")
def ingest(source_path, target_path, out):
    """Summarize two ratings files (users, overlap, items, ratings)."""
    source = data_mod.load_ratings(source_path)
    target = data_mod.load_ratings(target_path)
    overlap = len(data_mod.overlapping_users(source, target))
    lines = ["domain\tusers\toverlap\titems\tratings"]
    for name, d in (("source", source), ("target", target)):
        lines.append(f"{name}\t{d.n_users}\t{overlap}\t{d.n_items}\t{d.n_ratings}")
    _emit_table("\n".join(lines) + "\n", out)
    if overlap == 0:
        click.echo("warning: no overlapping users between the two domains", err=True)


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--fraction", type=float, default=None)
@click.option("--variant", type=int, default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_train(config_path, seed, fraction, variant, out_dir):
    """Train a model and write checkpoint, loss TSV, split manifest, and the
    normalized config."""
    cfg = load_config(config_path, seed=seed, fraction=fraction, variant=variant)
    source, target, split = _load_run(cfg)
    checkpoint_dir = os.path.join(out_dir, "checkpoint")
    for path in (out_dir, checkpoint_dir):
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create --out directory {path!r}: "
                                     f"{exc.strerror}") from exc
    params, history = _lint_and_train(source, target, split, cfg)
    save_checkpoint(params, checkpoint_dir)
    data_mod.write_atomic(os.path.join(out_dir, "loss.tsv"), loss_history_tsv(history))
    data_mod.write_split_manifest(split, os.path.join(out_dir, "split.tsv"))
    data_mod.write_atomic(os.path.join(out_dir, "config.echo"), normalized_text(cfg))
    click.echo(f"trained {cfg.epochs} epochs; outputs in {out_dir}")


@main.command("eval")
@click.option("--checkpoint", "ckpt_path", required=True, type=click.Path())
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--per-user", is_flag=True, default=False)
def cmd_eval(ckpt_path, config_path, seed, out, per_user):
    """Evaluate a checkpoint on the cold-start test users (MAE / RMSE).

    The test users are those of the checkpoint's own split; --seed keys
    only the rollout noise. --per-user writes its table to <out>.per_user
    and so needs --out."""
    if per_user and not out:
        raise ConfigurationError("--per-user writes <out>.per_user and needs --out")
    cfg = load_config(config_path, seed=seed)
    params = load_checkpoint(ckpt_path)
    source = data_mod.load_ratings(cfg.source_path)
    target = data_mod.load_ratings(cfg.target_path)
    _check_checkpoint(params.meta, ModelMeta(cfg, len(data_mod.user_universe(source, target)),
                                             source.n_items, target.n_items))
    split = data_mod.split_cold_start(source, target, cfg.fraction, params.meta.cfg.seed)
    report = evaluate(params, source, target, split, cfg)
    _emit_table(report.tsv(), out)
    click.echo(f"MAE={report.mae:.4f} RMSE={report.rmse:.4f} over {report.n_predictions} ratings")
    if per_user:
        data_mod.write_atomic(out + ".per_user", report.per_user_tsv())


@main.command("schedule-dump")
@click.option("--steps", "T", type=int, default=RunConfig.T)
@click.option("--eta", type=float, default=RunConfig.eta)
@click.option("--alpha-min", type=float, default=RunConfig.alpha_min)
@click.option("--alpha-max", type=float, default=RunConfig.alpha_max)
@click.option("--out", type=click.Path(), default=None)
def cmd_schedule_dump(T, eta, alpha_min, alpha_max, out):
    """Emit t, beta_t, alpha_bar_t, beta_tilde_t as TSV."""
    RunConfig(T=T, eta=eta, alpha_min=alpha_min, alpha_max=alpha_max).validate()
    s = schedule_mod.build_schedule(T, eta, alpha_min, alpha_max)
    _emit_table(schedule_mod.dump_tsv(s), out)


# sweep axis -> the config keys that one of its values sets, written
# key/key/... in that order
SWEEP_AXES = {"t_prime": ("t_prime",), "omega": ("omega",), "eta": ("eta",), "T": ("T",),
              "history_len": ("max_history_len",), "selector": ("variant", "ablation")}


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--sweep-axis", type=click.Choice(list(SWEEP_AXES)), required=True)
@click.option("--sweep-values", required=True,
              help="Comma-separated values, e.g. '0,1,2,3,4,5' or '0/none,2/none'.")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_sweep(config_path, sweep_axis, sweep_values, seed, out):
    """Train/evaluate over one axis; one TSV row per value.

    A selector value is a `variant/ablation` key of variants.SELECTORS,
    such as 0/none or 2/none. Every value is checked before any data is
    loaded; one error lists every bad value, and a list with no values is
    an error. Axes in EVAL_FREE_KEYS (t_prime, omega) train once and
    re-evaluate; the others train once per value on the base config's
    split."""
    base = load_config(config_path, seed=seed)
    keys = SWEEP_AXES[sweep_axis]
    configs, problems = [], []
    for raw in (v.strip() for v in sweep_values.split(",")):
        if not raw:
            continue
        parts = raw.split("/")
        if len(parts) != len(keys):
            problems.append(f"{sweep_axis} = {raw}: not of the form {'/'.join(keys)}")
            continue
        try:
            cfg = replace(base, **{k: _coerce(k, p) for k, p in zip(keys, parts)})
            cfg.validate()
        except ConfigurationError as exc:
            problems.append(f"{sweep_axis} = {raw}: {exc}")
            continue
        configs.append((raw, cfg))
    if problems:
        raise ConfigurationError("bad sweep values: " + " | ".join(problems))
    if not configs:
        raise ConfigurationError(f"no sweep values in {sweep_values!r}")
    source, target, split = _load_run(base)
    rows = ["value\tmae\trmse\tn"]
    inference_only = set(keys) <= set(EVAL_FREE_KEYS)
    params = None
    if inference_only:
        params, _ = _lint_and_train(source, target, split, base)
    for raw, cfg in configs:
        run_params = params
        if not inference_only:
            run_params, _ = _lint_and_train(source, target, split, cfg, f"{sweep_axis} = {raw}: ")
        report = evaluate(run_params, source, target, split, cfg)
        rows.append(f"{raw}\t{report.mae:.6f}\t{report.rmse:.6f}\t{report.n_predictions}")
    _emit_table("\n".join(rows) + "\n", out)


if __name__ == "__main__":
    main()
