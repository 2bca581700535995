"""End-to-end command-line runs on small synthetic data."""
import os

import numpy as np
import pytest
from click.testing import CliRunner

from prefdiff.cli import main
from prefdiff.errors import CheckpointError
from prefdiff.synthetic import generate_pair, write_tsv


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    src, tgt = generate_pair(n_users=60, n_items=30, ratings_per_user=5, seed=4)
    write_tsv(src, root / "src.tsv")
    write_tsv(tgt, root / "tgt.tsv")
    return str(root / "src.tsv"), str(root / "tgt.tsv")


@pytest.fixture(scope="module")
def run_config(data_files, tmp_path_factory):
    src, tgt = data_files
    path = tmp_path_factory.mktemp("cfg") / "run.conf"
    path.write_text(
        f"source_path = {src}\n"
        f"target_path = {tgt}\n"
        "d1 = 8\nhidden = 8\nmlp_layers = 2\nenc_layers = 1\n"
        "T = 5\nepochs = 2\nbatch_size = 32\nmax_history_len = 5\n"
        "omega = 1.0\nt_prime = 3\ndtype = float64\n")
    return str(path)


def invoke(*args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output + str(result.exception)
    return result


def test_ingest_stats(data_files, tmp_path):
    src, tgt = data_files
    out = tmp_path / "stats.tsv"
    result = invoke("ingest", src, tgt, "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "domain\tusers\toverlap\titems\tratings"
    assert len(lines) == 3
    assert result.output.startswith("domain\t")
    src_row = lines[1].split("\t")
    assert src_row[0] == "source" and int(src_row[1]) == 60


def test_ingest_warns_on_no_overlap(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    a.write_text("u1\ti1\t3.0\t1\n")
    b.write_text("zz\ti1\t3.0\t1\n")
    result = CliRunner().invoke(main, ["ingest", str(a), str(b)])
    assert result.exit_code == 0
    assert "no overlapping users" in result.stderr


def test_schedule_dump(tmp_path):
    out = tmp_path / "sched.tsv"
    invoke("schedule-dump", "--steps", "6", "--eta", "0.5", "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t\tbeta\talpha_bar\tbeta_tilde"
    assert len(lines) == 7


def test_train_outputs_and_determinism(run_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    invoke("train", "--config", run_config, "--seed", "7", "--out", str(out_a))
    invoke("train", "--config", run_config, "--seed", "7", "--out", str(out_b))
    for name in ("loss.tsv", "split.tsv", "config.echo"):
        assert (out_a / name).read_text() == (out_b / name).read_text()
    for name in ("manifest.tsv", "params.bin"):
        assert (out_a / "checkpoint" / name).read_bytes() == \
               (out_b / "checkpoint" / name).read_bytes()
    loss = (out_a / "loss.tsv").read_text().strip().split("\n")
    assert loss[0] == "epoch\tL_rec\tL_diff\ttotal"
    assert len(loss) == 3  # two epochs


def test_train_seed_changes_results(run_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    invoke("train", "--config", run_config, "--seed", "7", "--out", str(out_a))
    invoke("train", "--config", run_config, "--seed", "8", "--out", str(out_b))
    assert (out_a / "checkpoint" / "params.bin").read_bytes() != \
           (out_b / "checkpoint" / "params.bin").read_bytes()


def test_eval_from_checkpoint(run_config, tmp_path):
    run = tmp_path / "run"
    invoke("train", "--config", run_config, "--seed", "7", "--out", str(run))
    out = tmp_path / "report.tsv"
    result = invoke("eval", "--checkpoint", str(run / "checkpoint"),
                    "--config", run_config, "--seed", "7",
                    "--out", str(out), "--per-user")
    assert "MAE=" in result.output
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "metric\tvalue"
    per_user = (str(out) + ".per_user")
    assert os.path.exists(per_user)
    again = invoke("eval", "--checkpoint", str(run / "checkpoint"),
                   "--config", run_config, "--seed", "7")
    assert result.output.split("MAE=")[1] == again.output.split("MAE=")[1]


def test_sweep_inference_axis(run_config, tmp_path):
    out = tmp_path / "sweep.tsv"
    invoke("sweep", "--config", run_config, "--sweep-axis", "t_prime",
           "--sweep-values", "0,3,5", "--seed", "2", "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "value\tmae\trmse\tn"
    assert [row.split("\t")[0] for row in lines[1:]] == ["0", "3", "5"]
    maes = [float(row.split("\t")[1]) for row in lines[1:]]
    assert all(np.isfinite(maes))


def test_sweep_training_axis(run_config, tmp_path):
    out = tmp_path / "sweep.tsv"
    invoke("sweep", "--config", run_config, "--sweep-axis", "T",
           "--sweep-values", "3,5", "--seed", "2", "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3


def test_variant_bench_six_rows(run_config, tmp_path):
    out = tmp_path / "bench.tsv"
    invoke("variant-bench", "--config", run_config, "--seed", "3",
           "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "variant\tmae\trmse\tn"
    assert [row.split("\t")[0] for row in lines[1:]] == ["1", "2", "3", "4", "5", "6"]


def test_train_variant_override(run_config, tmp_path):
    out = tmp_path / "v4"
    invoke("train", "--config", run_config, "--seed", "1", "--variant", "4",
           "--out", str(out))
    manifest = (out / "checkpoint" / "manifest.tsv").read_text()
    assert "proj_w" in manifest
    assert "variant = 4" in (out / "config.echo").read_text()


def test_bad_config_reports_error(run_config, tmp_path, data_files):
    src, tgt = data_files
    bad = tmp_path / "bad.conf"
    bad.write_text(f"source_path = {src}\ntarget_path = {tgt}\nbogus = 1\n")
    result = CliRunner().invoke(
        main, ["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert result.exit_code != 0


@pytest.fixture(scope="module")
def main_checkpoint(run_config, tmp_path_factory):
    run = tmp_path_factory.mktemp("main_run")
    invoke("train", "--config", run_config, "--seed", "7", "--out", str(run))
    return str(run / "checkpoint")


def _eval_mismatch(main_checkpoint, run_config, tmp_path, extra):
    conf = tmp_path / "eval.conf"
    conf.write_text(open(run_config).read() + extra)
    result = CliRunner().invoke(
        main, ["eval", "--checkpoint", main_checkpoint, "--config", str(conf)])
    assert result.exit_code != 0
    assert isinstance(result.exception, CheckpointError)
    return str(result.exception)


def test_eval_rejects_longer_schedule(main_checkpoint, run_config, tmp_path):
    # T = 5 in the checkpoint; T = 8 with t_prime = 7 indexed past its table
    msg = _eval_mismatch(main_checkpoint, run_config, tmp_path, "T = 8\nt_prime = 7\n")
    assert "T is 5 in the checkpoint but 8 in the config" in msg


def test_eval_rejects_shorter_schedule(main_checkpoint, run_config, tmp_path):
    # a smaller T used to run silently under the wrong schedule
    msg = _eval_mismatch(main_checkpoint, run_config, tmp_path, "T = 4\nt_prime = 3\n")
    assert "T is 5 in the checkpoint but 4 in the config" in msg


def test_eval_rejects_other_wiring(main_checkpoint, run_config, tmp_path):
    # variant 4 needs a projection the main model's checkpoint lacks
    msg = _eval_mismatch(main_checkpoint, run_config, tmp_path, "variant = 4\n")
    assert "with_projection is False in the checkpoint but True" in msg


def test_eval_lists_every_checkpoint_mismatch(main_checkpoint, run_config, tmp_path):
    msg = _eval_mismatch(main_checkpoint, run_config, tmp_path,
                         "T = 4\nt_prime = 3\nvariant = 2\n")
    assert "T is 5" in msg and "state_mult is 1" in msg and "with_projection" in msg
