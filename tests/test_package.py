"""The package namespace: one list of public names, each bound to its
stage module's object; no module imports a name it does not use or reads
the environment, every spec field annotation has a check, every cell body
takes one signature and builds nothing the cell worker hands it, and
importing the package loads numpy but not scipy."""

import ast
import importlib
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import seqcred

SRC = Path(seqcred.__file__).parent

STAGES = ("model", "oracle", "posterior", "credible", "diagnostics", "experiments", "streams")


def test_all_has_no_duplicates():
    """Star imports let a later stage shadow an earlier one's name silently."""
    assert len(seqcred.__all__) == len(set(seqcred.__all__))


def test_every_name_resolves_to_its_stage_object():
    modules = [importlib.import_module(f"seqcred.{stage}") for stage in STAGES]
    owned = [(name, module) for module in modules for name in module.__all__]
    assert sorted(seqcred.__all__) == sorted(["__version__"] + [name for name, _ in owned])
    for name, module in owned:
        assert getattr(seqcred, name) is getattr(module, name), name


def test_oracle_is_the_function_not_the_module():
    assert seqcred.oracle is importlib.import_module("seqcred.oracle").oracle


def _unused_imports(path: Path) -> list[str]:
    """Names a module binds by import but never reads and does not export."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        item.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for item in ast.walk(node.value)
        if isinstance(item, ast.Constant) and isinstance(item.value, str)
    }
    return [name for name in bound if name not in used | exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_import_loads_no_scipy():
    """The package runs on numpy alone; scipy is a test-only reference."""
    code = "import sys, seqcred; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_reads_the_environment():
    """Run settings come from the spec and the command line alone."""
    offenders = [
        (path.name, token)
        for path in sorted(SRC.glob("*.py"))
        for token in ("environ", "getenv")
        if token in path.read_text()
    ]
    assert offenders == []


def test_every_spec_field_annotation_has_a_check():
    from seqcred.experiments import _FIELD_CHECKS, ExperimentSpec

    unchecked = {f.name: f.type for f in fields(ExperimentSpec) if f.type not in _FIELD_CHECKS}
    assert unchecked == {}


def _cell_bodies(*also: str) -> list[ast.FunctionDef]:
    """The cell bodies of experiments.py, and the functions named in also."""
    tree = ast.parse((SRC / "experiments.py").read_text())
    return [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and (node.name.startswith("_cell_") or node.name in also) and node.name != "_cell_worker"
    ]


def test_cell_bodies_build_nothing():
    """_cell_worker builds each cell's entry, model and prior once; the
    cell bodies and their shared coverage pass take them as arguments."""
    makers = {"_build_signal", "_build_entry", "make_model", "DdmParams"}
    bodies = _cell_bodies("_coverage_reps")
    calls = {
        (body.name, node.func.id)
        for body in bodies
        for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in makers
    }
    assert len(bodies) == 8
    assert calls == set()


def test_cell_bodies_share_one_signature():
    """_cell_worker calls every body as body(spec, cell_idx, entry_idx,
    entry, model, params); the entry is named after what it is."""
    bodies = _cell_bodies()
    assert len(bodies) == 7
    for body in bodies:
        args = body.args
        assert not (args.vararg or args.kwarg or args.kwonlyargs or args.defaults), body.name
        names = [a.arg for a in args.args]
        assert len(names) == 6, body.name
        assert names[:2] + names[4:] == ["spec", "cell_idx", "model", "params"], body.name


def test_one_pass_runner():
    """_run_pass is the one function that maps _cell_worker over the cells,
    so the pilot and the main pass collect their cells through the same
    loop; run_experiment is the one that opens a process pool, once per run."""
    tree = ast.parse((SRC / "experiments.py").read_text())
    users: dict = {"_cell_worker": set(), "ProcessPoolExecutor": set()}
    for top in tree.body:
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in users:
                users[name].add(getattr(top, "name", None))
    assert users == {"_cell_worker": {"_run_pass"}, "ProcessPoolExecutor": {"run_experiment"}}



def test_only_write_report_writes_files():
    """The CSV and the JSON report are a run's only outputs: in
    experiments.py only write_report calls write_text or open."""
    tree = ast.parse((SRC / "experiments.py").read_text())
    writers = {
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None))
        in {"write_text", "open"}
    }
    assert writers == {"write_report"}


def test_noise_and_tail_sums_come_from_model():
    """model.py states sigma_i^2, Sigma(I) and the tail sums once: oracle.py
    takes no cumulative sum of its own, and no module reads a second Sigma
    accessor beside ModelConfig.variance_sums."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    oracle_calls = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(trees["oracle.py"])
        if isinstance(node, ast.Call)
    }
    assert "cumsum" not in oracle_calls
    readers = [
        name for name, tree in trees.items()
        if any(isinstance(node, ast.Attribute) and node.attr == "variance_sum" for node in ast.walk(tree))
    ]
    assert readers == []


def test_make_posterior_is_the_one_posterior_builder():
    """Every DdmPosterior, of whichever variant, comes from make_posterior."""
    builders = {
        (path.name, getattr(top, "name", None))
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "DdmPosterior"
    }
    assert builders == {("posterior.py", "make_posterior")}


def test_cli_variants_are_the_posterior_variants():
    from seqcred.cli import _build_parser
    from seqcred.posterior import VARIANTS

    sub = next(a for a in _build_parser()._actions if a.choices and "posterior" in a.choices)
    variant = next(a for a in sub.choices["posterior"]._actions if a.dest == "variant")
    assert tuple(variant.choices) == VARIANTS


def test_cli_and_spec_prior_defaults_are_the_prior_defaults():
    """--K and --alpha of every subcommand, and the spec's K and alpha,
    default to DdmParams' own defaults."""
    from seqcred.cli import _build_parser
    from seqcred.experiments import ExperimentSpec
    from seqcred.posterior import DdmParams

    prior = DdmParams()
    sub = next(a for a in _build_parser()._actions if a.choices and "posterior" in a.choices)
    defaults = {
        (command, action.dest): action.default
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.dest in ("K", "alpha")
    }
    assert {command for command, _ in defaults} == {"posterior", "ball", "verify-constants"}
    assert all(value == getattr(prior, dest) for (_, dest), value in defaults.items())
    spec_defaults = {f.name: f.default for f in fields(ExperimentSpec) if f.name in ("K", "alpha")}
    assert spec_defaults == {"K": prior.K, "alpha": prior.alpha}


def _enclosing_defs(predicate) -> set[tuple[str, str | None]]:
    """(module, top-level name) of every AST node in the package that
    satisfies predicate."""
    return {
        (path.name, getattr(top, "name", None))
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if predicate(node)
    }


def test_only_frozen_freezes_an_array():
    """Records store arrays through model._frozen alone: no other function
    sets a writeable flag or makes an array contiguous by hand."""
    freezers = _enclosing_defs(
        lambda node: isinstance(node, ast.Attribute) and node.attr in ("writeable", "ascontiguousarray")
    )
    assert freezers == {("model.py", "_frozen")}


def test_only_json_object_checks_a_json_object():
    """Every JSON object's shape is checked by model._json_object alone."""
    checkers = _enclosing_defs(
        lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "must be a JSON object" in node.value
    )
    assert checkers == {("model.py", "_json_object")}
