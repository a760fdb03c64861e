"""The package namespace: one list of public names, each bound to its
stage module's object."""

import importlib

import seqcred

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
