"""The traced benchmark run can still hook every layer it declares.

`perfbench/spans.py` wraps `prefdiff` functions by name from outside the
package. A renamed or deleted target is reported as absent, and its metrics
drop out of the traced run without failing it. This test installs the
tracer as `perfbench/run.py --trace` does and asserts that every target is
found and every per-layer metric of `BENCHMARK.json` has a value.
"""
import json
from pathlib import Path

import prefdiff.diffusion
import prefdiff.evaluate

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_hooks_every_declared_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from spans import Tracer
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
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
