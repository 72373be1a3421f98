"""The benchmark's tracer still finds every binding it wraps.

``perfbench/run.py --trace 1`` wraps functions of the package by name
from outside it, so a rename inside ``src/`` would otherwise show up only
when the benchmark runs.  This builds the module namespace as the run
script does, enters and exits ``layers.Tracer`` on it around two CLI
studies, and checks that every binding comes back unchanged.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_script_modules():
    """``MODULES`` of ``perfbench/run.py``, read without running the script."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if [getattr(target, "id", None) for target in node.targets] == ["MODULES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no MODULES")


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def bindings(modules):
    """Every module-level and class-level binding the tracer could replace."""
    found = {}
    for name, module in vars(modules).items():
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if isinstance(value, type):
                for cls_attr, cls_value in vars(value).items():
                    found[(name, attr, cls_attr)] = cls_value
    found["_RUNNERS"] = dict(modules.cli._RUNNERS)
    return found


def test_tracer_wraps_cli_studies_and_restores(tmp_path):
    layers = load_layers()
    modules = SimpleNamespace(**{name: importlib.import_module(f"funmlab.{name}")
                                 for name in run_script_modules()})
    before = bindings(modules)
    with layers.Tracer(modules) as tracer:
        assert modules.cli.main(["solve", "--matrix", "random-spd:20,10", "--k", "5",
                                 "--output-dir", str(tmp_path / "solve")]) == 0
        assert modules.cli.main(["lowerbound", "--kappa", "4", "--eta", "1e-3",
                                 "--kmax", "20", "--output-dir", str(tmp_path / "lb")]) == 0
    after = bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before if key != "_RUNNERS")
    assert after["_RUNNERS"] == before["_RUNNERS"]

    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.runner", "cg.solve", "lanczos.core", "operators.matvec",
            "minimax.minimax", "cli.write"} <= names
    metrics = layers.layer_metrics(tracer.spans, 0)
    assert metrics["cg.solves"] == 1
    assert metrics["cli.commands"] == 2
    assert metrics["minimax.degrees_scanned"] > 0
