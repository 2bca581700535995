"""End-to-end command-line runs on small synthetic data."""
import os
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from prefdiff.cli import main
from prefdiff.errors import ConfigurationError
from prefdiff.params import load_checkpoint
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


def error_line(result, error_type):
    """The message of the one `Error: <Type>: <message>` line a package
    error leaves on stderr, with exit code 1 and no traceback."""
    assert result.exit_code == 1, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in result.output, result.output
    prefix = f"Error: {error_type}: "
    assert lines[0].startswith(prefix), lines
    return lines[0][len(prefix):]


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


def test_ingest_reports_non_utf8_file(data_files, tmp_path):
    _, tgt = data_files
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes(b"u1\ti1\t3.0\t1\nu\xff2\ti1\t4.0\t2\n")
    result = CliRunner().invoke(main, ["ingest", str(bad), tgt])
    message = error_line(result, "DataError")
    assert message.startswith(f"{bad}: not UTF-8 text: byte 13"), message


def test_train_reports_non_utf8_config(data_files, tmp_path):
    src, tgt = data_files
    bad = tmp_path / "latin1.conf"
    bad.write_bytes(f"source_path = {src}\ntarget_path = {tgt}\n".encode()
                    + b"# caf\xe9\nepochs = 1\n")
    result = CliRunner().invoke(
        main, ["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    message = error_line(result, "ConfigurationError")
    assert message.startswith(f"{bad}: not UTF-8 text"), message
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_a_config_that_is_a_directory_is_one_error_line(main_checkpoint, tmp_path,
                                                        monkeypatch, command):
    # each used to end in an IsADirectoryError traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").mkdir()
    args = {"train": ["--out", "out"], "eval": ["--checkpoint", main_checkpoint],
            "sweep": ["--sweep-axis", "omega", "--sweep-values", "0,1"]}[command]
    result = CliRunner().invoke(main, [command, "--config", "run.conf", *args])
    assert error_line(result, "ConfigurationError") == "cannot read 'run.conf': Is a directory"
    assert sorted(os.listdir(tmp_path)) == ["run.conf"]


@pytest.mark.parametrize("path,reason", [("", "No such file or directory"),
                                         ("missing.tsv", "No such file or directory"),
                                         ("ratings", "Is a directory")],
                         ids=["empty", "missing", "directory"])
def test_train_reports_an_unreadable_ratings_path(run_config, tmp_path, monkeypatch,
                                                  path, reason):
    # no source_path (the empty path), a missing file and a directory used
    # to end in an OSError traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ratings").mkdir()
    kept = [line for line in open(run_config).read().splitlines()
            if not line.startswith("source_path")]
    conf = tmp_path / "run.conf"
    conf.write_text("\n".join(kept) + (f"\nsource_path = {path}\n" if path else "\n"))
    result = CliRunner().invoke(main, ["train", "--config", str(conf), "--out", "out"])
    assert error_line(result, "DataError") == f"cannot read {path!r}: {reason}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,out,reason", [
    ("ingest", "missing/x.tsv", "No such file or directory"),
    ("ingest", "outdir", "Is a directory"),
    ("schedule-dump", "outdir", "Is a directory"),
], ids=["ingest-missing-dir", "ingest-directory", "schedule-dump-directory"])
def test_unwritable_out_is_one_error_line(data_files, tmp_path, monkeypatch, command, out,
                                          reason):
    # each used to end in a FileNotFoundError or IsADirectoryError traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    args = [*data_files] if command == "ingest" else ["--steps", "3"]
    result = CliRunner().invoke(main, [command, *args, "--out", out])
    assert error_line(result, "ConfigurationError") == f"cannot write {out!r}: {reason}"
    assert sorted(os.listdir(tmp_path)) == ["outdir"] and not os.listdir("outdir")


def test_train_out_that_is_a_file_is_one_error_line(run_config, tmp_path, monkeypatch):
    # os.makedirs used to end in a FileExistsError traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("kept\n")
    result = CliRunner().invoke(main, ["train", "--config", run_config, "--out", "taken"])
    message = error_line(result, "ConfigurationError")
    assert message == "cannot create --out directory 'taken': File exists"
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_train_checkpoint_path_that_is_a_file_is_one_error_line(run_config, tmp_path,
                                                                monkeypatch):
    # save_checkpoint's os.makedirs used to end in a FileExistsError
    # traceback after the whole run had trained
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "checkpoint").write_text("kept\n")
    trained = []
    monkeypatch.setattr("prefdiff.cli.train", lambda *args: trained.append(args))
    result = CliRunner().invoke(main, ["train", "--config", run_config, "--out", "out"])
    message = error_line(result, "ConfigurationError")
    assert message == f"cannot create --out directory {os.path.join('out', 'checkpoint')!r}: " \
                      "File exists"
    assert trained == [] and os.listdir("out") == ["checkpoint"]
    assert (tmp_path / "out" / "checkpoint").read_text() == "kept\n"


def test_schedule_dump(tmp_path):
    out = tmp_path / "sched.tsv"
    invoke("schedule-dump", "--steps", "6", "--eta", "0.5", "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t\tbeta\talpha_bar\tbeta_tilde"
    assert len(lines) == 7


def test_schedule_dump_lists_every_bad_option():
    # the four options are checked as a run config, every problem at once
    result = CliRunner().invoke(main, ["schedule-dump", "--steps", "0", "--eta", "2",
                                       "--alpha-min", "5", "--alpha-max", "1"])
    message = error_line(result, "ConfigurationError")
    for problem in ("T must be >= 1", "eta must be in (0, 1]",
                    "need 0 < alpha_min < alpha_max"):
        assert problem in message, message


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


def test_eval_per_user_needs_out(run_config, tmp_path, monkeypatch):
    # the per-user table goes only to <out>.per_user; without --out it was
    # computed and dropped
    monkeypatch.setattr("prefdiff.cli.load_checkpoint", None)
    result = CliRunner().invoke(main, ["eval", "--checkpoint", str(tmp_path),
                                       "--config", run_config, "--per-user"])
    assert error_line(result, "ConfigurationError") == \
        "--per-user writes <out>.per_user and needs --out"


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


@pytest.mark.parametrize("values,bad,good", [
    ("6,0,-3", ["T = 0: T must be >= 1", "T = -3: T must be >= 1"], "T = 6"),
    ("4.5", ["T = 4.5: key 'T': cannot parse '4.5' as int"], None),
], ids=["zero_and_negative_T", "fractional_T"])
def test_sweep_rejects_bad_values_before_any_work(run_config, monkeypatch,
                                                  values, bad, good):
    # every bad value is named in one error, and no data is loaded and no
    # model trained before it is raised
    work = []
    monkeypatch.setattr("prefdiff.cli._load_run", lambda *a: work.append("load"))
    monkeypatch.setattr("prefdiff.cli.train", lambda *a: work.append("train"))
    result = CliRunner().invoke(main, ["sweep", "--config", run_config,
                                       "--sweep-axis", "T", "--sweep-values", values])
    message = error_line(result, "ConfigurationError")
    assert all(problem in message for problem in bad), message
    assert good is None or good not in message
    assert work == []


def test_sweep_rejects_an_empty_value_list(run_config, monkeypatch):
    work = []
    monkeypatch.setattr("prefdiff.cli._load_run", lambda *a: work.append("load"))
    monkeypatch.setattr("prefdiff.cli.train", lambda *a: work.append("train"))
    result = CliRunner().invoke(main, ["sweep", "--config", run_config,
                                       "--sweep-axis", "omega", "--sweep-values", " , "])
    assert "no sweep values" in error_line(result, "ConfigurationError")
    assert work == []


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
    assert "proj_w" in load_checkpoint(out / "checkpoint").arrays
    assert "variant = 4" in (out / "config.echo").read_text()


def test_bad_config_reports_error(run_config, tmp_path, data_files):
    src, tgt = data_files
    bad = tmp_path / "bad.conf"
    bad.write_text(f"source_path = {src}\ntarget_path = {tgt}\nbogus = 1\n")
    result = CliRunner().invoke(
        main, ["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert "unknown config keys: ['bogus']" in error_line(result, "ConfigurationError")


def test_package_error_is_raised_without_standalone_mode(run_config, data_files, tmp_path):
    # callers that run the group in-process still get the exception itself
    src, tgt = data_files
    bad = tmp_path / "bad.conf"
    bad.write_text(f"source_path = {src}\ntarget_path = {tgt}\nbogus = 1\n")
    with pytest.raises(ConfigurationError, match="bogus"):
        main.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")],
                  standalone_mode=False)


@pytest.mark.parametrize("fraction,n_test", [("0.001", 0), ("0.999", 60)])
@pytest.mark.parametrize("command", [["train"], ["sweep", "--sweep-axis", "omega",
                                                 "--sweep-values", "0,1"]],
                         ids=["train", "sweep"])
def test_degenerate_split_is_refused_before_training(run_config, tmp_path, monkeypatch,
                                                     command, fraction, n_test):
    # a fraction that holds out none or all of the 60 users fails at the
    # split: no training step runs and nothing is written
    steps = []
    monkeypatch.setattr("prefdiff.trainer.train_step", lambda *a: steps.append(a))
    conf = _with_keys(run_config, tmp_path, f"fraction = {fraction}\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command[0], "--config", str(conf), *command[1:],
                                       "--out", str(out)])
    message = error_line(result, "DataError")
    assert f"holds out {n_test} of 60 overlapping users" in message
    assert "1..59 test users" in message
    assert steps == []
    assert not out.exists()


@pytest.fixture(scope="module")
def main_checkpoint(run_config, tmp_path_factory):
    run = tmp_path_factory.mktemp("main_run")
    invoke("train", "--config", run_config, "--seed", "7", "--out", str(run))
    return str(run / "checkpoint")


def _with_keys(run_config, tmp_path, extra):
    """A copy of the run config with the `key = value` lines of `extra` in
    place of the lines that set the same keys."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in open(run_config).read().splitlines()
            if line.partition("=")[0].strip() not in keys]
    conf = tmp_path / "eval.conf"
    conf.write_text("\n".join(kept) + "\n" + extra)
    return conf


def _eval_mismatch(main_checkpoint, run_config, tmp_path, extra):
    conf = _with_keys(run_config, tmp_path, extra)
    result = CliRunner().invoke(
        main, ["eval", "--checkpoint", main_checkpoint, "--config", str(conf)])
    return error_line(result, "CheckpointError")


def test_eval_refuses_a_checkpoint_whose_seed_line_was_edited(main_checkpoint, run_config,
                                                             tmp_path):
    # seed is free at eval, and the checkpoint's own seed draws the split:
    # an edited seed line used to exit 0 and score a different split
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(main_checkpoint, ckpt)
    manifest = ckpt / "manifest.tsv"
    assert "# seed = 7\n" in manifest.read_text()
    manifest.write_text(manifest.read_text().replace("# seed = 7\n", "# seed = 8\n"))
    result = CliRunner().invoke(main, ["eval", "--checkpoint", str(ckpt),
                                       "--config", run_config])
    assert "do not match the sha256" in error_line(result, "CheckpointError")


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
    assert "variant is 0 in the checkpoint but 4 in the config" in msg


def test_eval_lists_every_checkpoint_mismatch(main_checkpoint, run_config, tmp_path):
    msg = _eval_mismatch(main_checkpoint, run_config, tmp_path,
                         "T = 4\nt_prime = 3\nvariant = 2\n")
    assert msg.count(" in the checkpoint but ") == 2
    assert "T is 5" in msg and "variant is 0" in msg


@pytest.mark.parametrize("extra,expected", [
    ("eta = 0.9\n", "eta is 0.1 in the checkpoint but 0.9 in the config"),
    ("alpha_min = 0.2\n", "alpha_min is 0.1 in the checkpoint but 0.2 in the config"),
    ("alpha_max = 5\n", "alpha_max is 10.0 in the checkpoint but 5.0 in the config"),
    # variant 1 has the main model's state layout, so only the binding refuses it
    ("variant = 1\n", "variant is 0 in the checkpoint but 1 in the config"),
    ("ablation = no_tf\n", "ablation is none in the checkpoint but no_tf in the config"),
    # the architecture and the split, which the checkpoint used to leave unbound
    ("max_history_len = 3\n", "max_history_len is 5 in the checkpoint but 3 in the config"),
    ("d1 = 16\n", "d1 is 8 in the checkpoint but 16 in the config"),
    ("fraction = 0.3\n", "fraction is 0.2 in the checkpoint but 0.3 in the config"),
])
def test_eval_rejects_other_run_setting(main_checkpoint, run_config, tmp_path,
                                        extra, expected):
    msg = _eval_mismatch(main_checkpoint, run_config, tmp_path, extra)
    assert expected in msg
    assert msg.count(" in the checkpoint but ") == 1


def test_eval_lists_every_run_setting_mismatch(main_checkpoint, run_config, tmp_path):
    # a main checkpoint evaluated under another schedule and the no_tf
    # ablation used to run and report a wrong MAE
    msg = _eval_mismatch(main_checkpoint, run_config, tmp_path,
                         "eta = 0.9\nalpha_max = 5\nablation = no_tf\n")
    assert msg.count(" in the checkpoint but ") == 3
    assert "eta is 0.1" in msg and "alpha_max is 10.0" in msg and "ablation is none" in msg


def test_eval_refuses_data_of_other_sizes(run_config, data_files, tmp_path):
    # a checkpoint of a 40-user, 12-item pair evaluated on the 60-user,
    # 30-item pair used to crash with an IndexError; a same-size pair of
    # other users still passes
    small = []
    for name, domain in zip(("src", "tgt"), generate_pair(n_users=40, n_items=12,
                                                          ratings_per_user=4, seed=2)):
        small.append(tmp_path / f"small_{name}.tsv")
        write_tsv(domain, small[-1])
    conf = _with_keys(run_config, tmp_path,
                      f"source_path = {small[0]}\ntarget_path = {small[1]}\n")
    invoke("train", "--config", str(conf), "--out", str(tmp_path / "run"))
    checkpoint = str(tmp_path / "run" / "checkpoint")
    result = CliRunner().invoke(main, ["eval", "--checkpoint", checkpoint,
                                       "--config", run_config])
    msg = error_line(result, "CheckpointError")
    assert msg.count(" in the checkpoint but ") == 3
    assert "n_users is 40 in the checkpoint but 60 in the data" in msg
    assert "n_items_src is 12 in the checkpoint but 30 in the data" in msg
    assert "n_items_tgt is 12 in the checkpoint but 30 in the data" in msg
    for path in small:
        path.write_text("".join(f"x{line}\n" for line in path.read_text().splitlines()))
    assert "MAE=" in invoke("eval", "--checkpoint", checkpoint, "--config", str(conf)).output


def test_eval_accepts_other_inference_settings(main_checkpoint, run_config, tmp_path):
    conf = _with_keys(run_config, tmp_path, "omega = 0\nt_prime = 1\n")
    result = invoke("eval", "--checkpoint", main_checkpoint, "--config", str(conf),
                    "--seed", "9")
    assert "MAE=" in result.output


def test_eval_rejects_a_repeated_key(main_checkpoint, run_config, tmp_path):
    # an appended line used to override the earlier one without a word
    conf = tmp_path / "eval.conf"
    conf.write_text(open(run_config).read() + "t_prime = 0\n")
    result = CliRunner().invoke(
        main, ["eval", "--checkpoint", main_checkpoint, "--config", str(conf)])
    msg = error_line(result, "ConfigurationError")
    assert msg == "config keys given more than once: ['t_prime']"


def test_eval_reports_a_manifest_that_is_not_utf8(main_checkpoint, run_config, tmp_path):
    # flipping the top bit of byte 3, the `_` of `# n_users`, makes it a
    # UTF-8 lead byte that no continuation byte follows
    ckpt = tmp_path / "checkpoint"
    ckpt.mkdir()
    for name in ("manifest.tsv", "params.bin"):
        (ckpt / name).write_bytes(open(os.path.join(main_checkpoint, name), "rb").read())
    manifest = bytearray((ckpt / "manifest.tsv").read_bytes())
    manifest[3] ^= 0x80
    (ckpt / "manifest.tsv").write_bytes(bytes(manifest))
    result = CliRunner().invoke(main, ["eval", "--checkpoint", str(ckpt),
                                       "--config", run_config])
    message = error_line(result, "CheckpointError")
    assert message.startswith(f"{ckpt / 'manifest.tsv'}: not UTF-8 text: byte 3"), message


@pytest.mark.parametrize("name,make,reason", [
    ("manifest.tsv", os.mkdir, "Is a directory"),
    ("manifest.tsv", None, "No such file or directory"),
    ("params.bin", os.mkdir, "Is a directory"),
], ids=["manifest-directory", "manifest-missing", "blob-directory"])
def test_eval_reports_an_unreadable_checkpoint_file(main_checkpoint, run_config, tmp_path,
                                                    name, make, reason):
    # a directory in place of either file used to end in an
    # IsADirectoryError traceback
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(main_checkpoint, ckpt)
    os.remove(ckpt / name)
    if make:
        make(ckpt / name)
    result = CliRunner().invoke(main, ["eval", "--checkpoint", str(ckpt),
                                       "--config", run_config])
    assert error_line(result, "CheckpointError") == f"cannot read {str(ckpt / name)!r}: {reason}"


def test_eval_splits_as_the_checkpoint(main_checkpoint, run_config, tmp_path):
    # --seed keys only the rollout noise: with no reverse step the reports
    # under two seeds are the same bytes, over the checkpoint's test users
    conf = _with_keys(run_config, tmp_path, "t_prime = 0\n")
    reports = []
    for seed in ("7", "9"):
        out = tmp_path / f"seed{seed}.tsv"
        invoke("eval", "--checkpoint", main_checkpoint, "--config", str(conf),
               "--seed", seed, "--per-user", "--out", str(out))
        reports.append((out.read_bytes(), (tmp_path / f"seed{seed}.tsv.per_user").read_bytes()))
    assert reports[0] == reports[1]
    split = os.path.join(os.path.dirname(main_checkpoint), "split.tsv")
    test_users = {line.split("\t")[0] for line in open(split).read().splitlines()
                  if line.endswith("\ttest")}
    scored = {line.split("\t")[0] for line in reports[0][1].decode().splitlines()[1:]}
    assert scored == test_users and len(test_users) == 12
