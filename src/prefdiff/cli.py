"""Command-line surface binding the modules into reproducible runs.

All outputs are TSV; every command takes --seed and is bit-reproducible
given identical inputs.
"""
from __future__ import annotations

import os
from dataclasses import replace

import click

from . import data as data_mod
from . import schedule as schedule_mod
from .config import RunConfig, load_config, normalized_text
from .errors import CheckpointError
from .evaluate import evaluate
from .params import ModelMeta, load_checkpoint, save_checkpoint
from .trainer import loss_history_tsv, train
from .variants import Pipeline, build_pipeline, lint_pipeline


def _load_run(cfg: RunConfig):
    source = data_mod.load_ratings(cfg.source_path)
    target = data_mod.load_ratings(cfg.target_path)
    split = data_mod.split_cold_start(source, target, cfg.fraction, cfg.seed)
    return source, target, split


def _check_checkpoint(meta: ModelMeta, cfg: RunConfig, pipeline: Pipeline) -> None:
    """Raise one CheckpointError listing every way the checkpoint's schedule
    length and state layout differ from what the config asks for."""
    wanted = {"T": cfg.T, "state_mult": pipeline.state_mult,
              "with_projection": pipeline.with_projection}
    problems = [f"{key} is {getattr(meta, key)} in the checkpoint but {value} in the config"
                for key, value in wanted.items() if getattr(meta, key) != value]
    if problems:
        raise CheckpointError("checkpoint does not match the config: " + "; ".join(problems))


@click.group()
def main():
    """Preference-guided diffusion for cold-start cross-domain recommendation."""


@main.command()
@click.argument("source_path", type=click.Path(exists=True))
@click.argument("target_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None, help="Write stats TSV here.")
def ingest(source_path, target_path, out):
    """Summarize two ratings files (users, overlap, items, ratings)."""
    source = data_mod.load_ratings(source_path)
    target = data_mod.load_ratings(target_path)
    overlap = len(data_mod.overlapping_users(source, target))
    lines = ["domain\tusers\toverlap\titems\tratings"]
    for name, d in (("source", source), ("target", target)):
        lines.append(f"{name}\t{d.n_users}\t{overlap}\t{d.n_items}\t{len(d.records)}")
    text = "\n".join(lines) + "\n"
    click.echo(text, nl=False)
    if overlap == 0:
        click.echo("warning: no overlapping users between the two domains", err=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--fraction", type=float, default=None)
@click.option("--variant", type=int, default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_train(config_path, seed, fraction, variant, out_dir):
    """Train a model and write checkpoint, loss TSV, split manifest, and the
    normalized config."""
    cfg = load_config(config_path, seed=seed, fraction=fraction, variant=variant)
    os.makedirs(out_dir, exist_ok=True)
    source, target, split = _load_run(cfg)
    pipeline = build_pipeline(cfg.variant, cfg.ablation)
    for warning in lint_pipeline(pipeline, cfg.eta):
        click.echo(f"warning: {warning}", err=True)
    params, history = train(source, target, split, cfg, pipeline)
    save_checkpoint(params, os.path.join(out_dir, "checkpoint"))
    with open(os.path.join(out_dir, "loss.tsv"), "w", encoding="utf-8") as fh:
        fh.write(loss_history_tsv(history))
    data_mod.write_split_manifest(split, os.path.join(out_dir, "split.tsv"))
    with open(os.path.join(out_dir, "config.echo"), "w", encoding="utf-8") as fh:
        fh.write(normalized_text(cfg))
    click.echo(f"trained {cfg.epochs} epochs; outputs in {out_dir}")


@main.command("eval")
@click.option("--checkpoint", "ckpt_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--per-user", is_flag=True, default=False)
def cmd_eval(ckpt_path, config_path, seed, out, per_user):
    """Evaluate a checkpoint on the cold-start test users (MAE / RMSE)."""
    cfg = load_config(config_path, seed=seed)
    source, target, split = _load_run(cfg)
    params = load_checkpoint(ckpt_path)
    pipeline = build_pipeline(cfg.variant, cfg.ablation)
    _check_checkpoint(params.meta, cfg, pipeline)
    s = schedule_mod.build_schedule(cfg.T, cfg.eta, cfg.alpha_min, cfg.alpha_max)
    report = evaluate(params, s, source, target, split, cfg, pipeline,
                      collect_per_user=per_user)
    click.echo(report.tsv(), nl=False)
    click.echo(f"MAE={report.mae:.4f} RMSE={report.rmse:.4f} over {report.n_predictions} ratings")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report.tsv())
        if per_user:
            with open(out + ".per_user", "w", encoding="utf-8") as fh:
                fh.write(report.per_user_tsv())


@main.command("schedule-dump")
@click.option("--steps", "T", type=int, default=200)
@click.option("--eta", type=float, default=0.1)
@click.option("--alpha-min", type=float, default=0.1)
@click.option("--alpha-max", type=float, default=10.0)
@click.option("--out", type=click.Path(), default=None)
def cmd_schedule_dump(T, eta, alpha_min, alpha_max, out):
    """Emit t, beta_t, alpha_bar_t, beta_tilde_t as TSV."""
    s = schedule_mod.build_schedule(T, eta, alpha_min, alpha_max)
    text = schedule_mod.dump_tsv(s)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


SWEEP_AXES = {"t_prime": "t_prime", "omega": "omega", "eta": "eta", "T": "T",
              "history_len": "max_history_len"}


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--sweep-axis", type=click.Choice(list(SWEEP_AXES)), required=True)
@click.option("--sweep-values", required=True,
              help="Comma-separated values, e.g. '0,1,2,3,4,5'.")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_sweep(config_path, sweep_axis, sweep_values, seed, out):
    """Train/evaluate over one hyper-parameter axis; one TSV row per value.

    Inference-only axes (t_prime, omega) train once and re-evaluate."""
    base = load_config(config_path, seed=seed)
    name = SWEEP_AXES[sweep_axis]
    values = [v.strip() for v in sweep_values.split(",") if v.strip()]
    source, target, split = _load_run(base)
    pipeline = build_pipeline(base.variant, base.ablation)
    rows = ["value\tmae\trmse\tn"]
    inference_only = sweep_axis in ("t_prime", "omega")
    params = None
    if inference_only:
        params, _ = train(source, target, split, base, pipeline)
    for raw in values:
        cfg = replace(base, **{name: type(getattr(base, name))(raw)})
        cfg.validate()
        run_params = params
        if not inference_only:
            run_params, _ = train(source, target, split, cfg, pipeline)
        s = schedule_mod.build_schedule(cfg.T, cfg.eta, cfg.alpha_min, cfg.alpha_max)
        report = evaluate(run_params, s, source, target, split, cfg, pipeline)
        rows.append(f"{raw}\t{report.mae:.6f}\t{report.rmse:.6f}\t{report.n_predictions}")
    text = "\n".join(rows) + "\n"
    click.echo(text, nl=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


@main.command("variant-bench")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_variant_bench(config_path, seed, out):
    """Train and evaluate all six comparison wirings under one budget."""
    base = load_config(config_path, seed=seed)
    source, target, split = _load_run(base)
    s = schedule_mod.build_schedule(base.T, base.eta, base.alpha_min, base.alpha_max)
    rows = ["variant\tmae\trmse\tn"]
    for vid in range(1, 7):
        pipeline = build_pipeline(vid, "none")
        for warning in lint_pipeline(pipeline, base.eta):
            click.echo(f"warning (variant {vid}): {warning}", err=True)
        params, _ = train(source, target, split, base, pipeline)
        report = evaluate(params, s, source, target, split,
                          replace(base, omega=0.0), pipeline)
        rows.append(f"{vid}\t{report.mae:.6f}\t{report.rmse:.6f}\t{report.n_predictions}")
    text = "\n".join(rows) + "\n"
    click.echo(text, nl=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
