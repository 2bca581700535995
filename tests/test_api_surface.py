"""Every function and method defined in `prefdiff` serves a command, every
file it reads goes through `data.read_input` and every file it writes
through `data.write_atomic`, and every `raise` is at one of the boundaries
where a run's inputs are checked.

The test wraps each function, method and (cached) property getter of the
package with a call counter, runs every CLI command on a tiny synthetic pair, and
lists the names that no run called; one `ingest` of a file with a bad
line reaches the error path. Dataclass-generated dunders (compiled
from generated source, not from the module's file) and the error classes
are exempt. The synthetic pair is made through the wrapped generator, as
the benchmark and `tools/output_digest.py` make theirs.
"""
import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from functools import cached_property
from pathlib import Path

import click
from click.testing import CliRunner

import prefdiff

SELECTORS = list(prefdiff.variants.SELECTORS)
T = 3
SWEEPS = {"t_prime": "0,3", "omega": "0,2", "eta": "0.1,0.5", "T": "2,3",
          "history_len": "2,4"}


def _modules():
    return [importlib.import_module(f"prefdiff.{info.name}")
            for info in pkgutil.iter_modules(prefdiff.__path__)]


def _own(fn, module) -> bool:
    return inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__


def _targets():
    """(name, holder, attribute, function) for every wrapped callable; a
    property or cached property is wrapped through its getter."""
    out = []
    for module in _modules():
        for name, obj in vars(module).items():
            where = f"{module.__name__}.{name}"
            if _own(obj, module):
                out.append((where, module, name, obj))
            elif isinstance(obj, click.Command) and _own(obj.callback, module):
                out.append((where, obj, "callback", obj.callback))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                    and not issubclass(obj, Exception):
                for attr, member in vars(obj).items():
                    if isinstance(member, (property, cached_property)) \
                            or _own(member, module):
                        out.append((f"{where}.{attr}", obj, attr, member))
    return out


def _install(monkeypatch, counts):
    modules = _modules()
    for name, holder, attr, member in _targets():
        counts[name] = 0

        def wrap(fn, name=name):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        if isinstance(member, property):
            monkeypatch.setattr(holder, attr, property(wrap(member.fget)))
        elif isinstance(member, cached_property):
            cached = cached_property(wrap(member.func))
            cached.__set_name__(holder, attr)
            monkeypatch.setattr(holder, attr, cached)
        elif inspect.ismodule(holder):
            # `from .x import f` binds f in other modules too
            for module in modules:
                if getattr(module, attr, None) is member:
                    monkeypatch.setattr(module, attr, wrap(member))
        else:
            monkeypatch.setattr(holder, attr, wrap(member))


def _function(member):
    if isinstance(member, property):
        return member.fget
    return member.func if isinstance(member, cached_property) else member


def _parameter_types(fn) -> set[str]:
    """The names that occur in the annotations of fn's parameters."""
    return {name for key, annotation in inspect.get_annotations(fn).items()
            if key != "return" for name in re.findall(r"\w+", str(annotation))}


def test_the_model_is_the_one_home_of_its_schedule_and_settings():
    # a model carries the schedule and run config it was built under: no
    # function takes a schedule beside it, and only inference takes a run
    # config beside it, for the settings that may differ from training's
    with_schedule, with_config = [], []
    for name, _, _, member in _targets():
        types = _parameter_types(_function(member))
        if "ModelParams" in types:
            with_schedule += [name] if "Schedule" in types else []
            with_config += [name] if "RunConfig" in types else []
    assert with_schedule == []
    assert sorted(with_config) == ["prefdiff.evaluate.evaluate", "prefdiff.evaluate.infer_user"]
    # the checks read the annotations they are meant to
    names = {name for name, _, _, _ in _targets()}
    assert {"prefdiff.diffusion.reverse_step", "prefdiff.trainer.compute_batch_loss",
            "prefdiff.params.ModelMeta.pipeline"} <= names


# the pathlib and numpy functions that read or write a file
_FILE_FUNCTIONS = ("read_text", "read_bytes", "write_text", "write_bytes", "fromfile",
                   "tofile", "load", "loadtxt", "genfromtxt", "memmap", "save", "savez",
                   "savetxt")


def _file_calls(tree) -> list[tuple[int, str]]:
    """(line, call) for every `open` or `fdopen` call in `tree`, whatever
    its mode, and every pathlib or numpy file reader or writer."""
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("open", "fdopen") + _FILE_FUNCTIONS]


def test_every_file_is_opened_in_read_input_or_write_atomic():
    # read_input is the one place that opens, decodes and refuses an input
    # file; write_atomic the one that writes a file, since a plain write
    # leaves a half-written file behind a failed or killed process
    outside, inside = [], {}
    for path in sorted(Path(prefdiff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = []
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("read_input", "write_atomic"):
                calls = _file_calls(node)
                inside[node.name] = sorted(call for _, call in calls)
                exempt += calls
        outside += [(path.name, *call) for call in _file_calls(tree) if call not in exempt]
    assert outside == []
    # the scan sees the opens it exempts: bytes or UTF-8 text to read, and
    # bytes to write
    assert inside == {"read_input": ["open(path, 'rb')", "open(path, encoding='utf-8')"],
                      "write_atomic": ["open(tmp, 'wb')"]}


# every `raise` of the package, by module and function, with its count: the
# boundaries that check a run once, where its inputs enter, plus the two
# non-finite checks (training loss, evaluated prediction) and autodiff's
# scalar check. Code below the boundaries trusts what they guarantee.
RAISE_SITES = {
    "cli._Commands.main": 1,        # re-raises a package error outside standalone mode
    "cli._check_checkpoint": 1,
    "cli.cmd_eval": 1,
    "cli.cmd_train": 1,
    "cli.cmd_sweep": 2,
    "config.RunConfig.validate": 1,
    "config._coerce": 1,
    "config.parse_config_text": 2,
    "data._check_line": 5,
    "data.load_ratings": 1,         # the bulk check disagrees with the per-line one
    "data.read_input": 2,
    "data.split_cold_start": 2,
    "data.write_atomic": 1,
    "params._parse_manifest": 3,
    "params.load_checkpoint": 2,
    "trainer.compute_batch_loss": 2,
    "evaluate.evaluate": 1,
    "autodiff.Tensor.backward": 1,
}


def _raise_sites(node, scope: str) -> Counter:
    """The number of `raise` statements under `node` per enclosing
    `module.Class.function` name, `scope` being node's own."""
    sites = Counter()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            sites += _raise_sites(child, f"{scope}.{child.name}")
        else:
            if isinstance(child, ast.Raise):
                sites[scope] += 1
            sites += _raise_sites(child, scope)
    return sites


def test_every_raise_is_at_a_boundary():
    # a range that a boundary fixes is not checked again below it: adding a
    # re-check back takes an edit of RAISE_SITES
    found = Counter()
    for path in sorted(Path(prefdiff.__file__).parent.glob("*.py")):
        found += _raise_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert dict(found) == RAISE_SITES


def _cli(*args):
    from prefdiff.cli import main
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, f"{args}: {result.output}{result.exception!r}"


def test_every_name_is_reached_by_a_command(tmp_path, monkeypatch):
    counts: dict[str, int] = {}
    _install(monkeypatch, counts)
    # a function, a command, a method and a (cached) property getter are all counted
    assert {"prefdiff.diffusion.denoise", "prefdiff.cli.cmd_train",
            "prefdiff.autodiff.Tensor.backward", "prefdiff.autodiff.Tensor.shape",
            "prefdiff.params.ModelMeta.pipeline"} <= set(counts)
    from prefdiff.cli import main
    from prefdiff.synthetic import generate_pair, write_tsv
    source, target = generate_pair(n_users=40, n_items=12, ratings_per_user=4, seed=2)
    write_tsv(source, tmp_path / "source.tsv")
    write_tsv(target, tmp_path / "target.tsv")
    base = (f"source_path = {tmp_path / 'source.tsv'}\n"
            f"target_path = {tmp_path / 'target.tsv'}\n"
            f"d1 = 4\nhidden = 4\nmlp_layers = 2\nenc_layers = 1\nT = {T}\n"
            "epochs = 1\nbatch_size = 16\nmax_history_len = 4\n")

    _cli("ingest", tmp_path / "source.tsv", tmp_path / "target.tsv",
         "--out", tmp_path / "stats.tsv")
    # a bad ratings line is reported by the per-line check that names it
    (tmp_path / "bad.tsv").write_text("u0\ti0\t3.0\t1\nu1\ti0\t9.0\t2\n")
    result = CliRunner().invoke(main, ["ingest", str(tmp_path / "bad.tsv"),
                                       str(tmp_path / "target.tsv")])
    assert result.exit_code == 1 and "bad.tsv:2: rating 9.0 outside" in result.stderr
    _cli("schedule-dump", "--steps", T)
    for variant, ablation in SELECTORS:
        run = tmp_path / f"v{variant}_{ablation}"
        selector = f"variant = {variant}\nablation = {ablation}\n"
        (tmp_path / f"{run.name}.conf").write_text(base + selector)
        _cli("train", "--config", tmp_path / f"{run.name}.conf", "--out", run)
        for t_prime in (0, 1, T):
            for omega in (0, 2):
                conf = run / f"eval_t{t_prime}_w{omega}.conf"
                conf.write_text(base + selector + f"t_prime = {t_prime}\nomega = {omega}\n")
                _cli("eval", "--checkpoint", run / "checkpoint", "--config", conf,
                     "--per-user", "--out", run / f"eval_t{t_prime}_w{omega}.tsv")
    (tmp_path / "base.conf").write_text(base + "omega = 2\n")
    for axis, values in SWEEPS.items():
        _cli("sweep", "--config", tmp_path / "base.conf", "--sweep-axis", axis,
             "--sweep-values", values)
    _cli("variant-bench", "--config", tmp_path / "base.conf")

    uncalled = sorted(name for name, n in counts.items() if n == 0)
    assert uncalled == [], f"no command reaches: {uncalled}"
