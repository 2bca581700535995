"""The traced benchmark run can still hook every layer it declares.

`perfbench/spans.py` wraps `prefdiff` functions by name from outside the
package. A renamed or deleted target is reported as absent, and its metrics
drop out of the traced run without failing it. The first test installs the
tracer as `perfbench/run.py --trace` does and asserts that every target is
found and every per-layer metric of `BENCHMARK.json` has a value. The
second runs a tiny traced `train` and `eval --per-user` through the CLI, so
that a change that breaks a tracer hook, or moves a call count away from
`workloads.expected_counts`, fails here and not only in a benchmark run.
"""
import json
from pathlib import Path

import prefdiff.diffusion
import prefdiff.evaluate

ROOT = Path(__file__).resolve().parent.parent


def _per_layer_names() -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def test_tracer_hooks_every_declared_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from spans import Tracer
    names = _per_layer_names()
    original = prefdiff.diffusion.reverse_step
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert prefdiff.evaluate.reverse_step is not original
        metrics = tracer.metrics(names, 1.0, 1.0)
    finally:
        tracer.uninstall()
    assert sorted(metrics) == sorted(names)
    assert prefdiff.diffusion.reverse_step is original
    assert prefdiff.evaluate.reverse_step is original


def test_traced_tiny_run_matches_the_count_arithmetic(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from spans import Tracer
    from workloads import Shape, Workload, config_text, expected_counts

    from prefdiff.cli import main
    from prefdiff.synthetic import generate_pair, write_tsv
    w = Workload("tiny", Shape(n_users=40, n_items=12, ratings_per_user=4),
                 {"d1": 4, "hidden": 8, "T": 4, "max_history_len": 3,
                  "batch_size": 16, "epochs": 1},
                 evals=((0.0, 4), (2.0, 3)))
    source, target = generate_pair(n_users=40, n_items=12, ratings_per_user=4, seed=1)
    write_tsv(source, tmp_path / "source.tsv")
    write_tsv(target, tmp_path / "target.tsv")
    (tmp_path / "train.conf").write_text(config_text(w, 1, tmp_path, 0.0, -1))
    commands = [["train", "--config", tmp_path / "train.conf", "--out", tmp_path / "train"]]
    for k, (omega, t_prime) in enumerate(w.evals):
        (tmp_path / f"eval{k}.conf").write_text(config_text(w, 1, tmp_path, omega, t_prime))
        commands.append(["eval", "--checkpoint", tmp_path / "train" / "checkpoint",
                         "--config", tmp_path / f"eval{k}.conf", "--per-user",
                         "--out", tmp_path / f"eval{k}.tsv"])
    names = _per_layer_names()
    tracer = Tracer()
    tracer.install()
    try:
        for args in commands:  # a hook that raises fails the command
            main.main(args=[str(a) for a in args], prog_name="prefdiff",
                      standalone_mode=False)
        metrics = tracer.metrics(names, 1.0, 1.0)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert sorted(metrics) == sorted(names)
    counts = expected_counts(w)
    assert {name: metrics[name] for name in counts} == counts
    assert metrics["autodiff.eval_graph_frac"] == 0.0
