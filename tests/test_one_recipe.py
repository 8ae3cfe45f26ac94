"""Only `protocol.build_run` turns a run's seed into its inputs.

The data, its split and the initial model each take their seed from the
run's master seed under one label ("data", "split", "init"). Those labels
appear in `build_run` alone, and the CLI builds every run through it, so
a second recipe that could drift from the first cannot appear.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pqfl"
LABELS = {"data", "split", "init"}
RECIPE_STEPS = {"generate_synthetic", "split_iid", "init_model", "setup_keys"}


def called_name(call: ast.Call) -> str | None:
    """The name a call is made by: `f(...)` or `module.f(...)`."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def calls(source: str) -> list[tuple[str, ast.Call]]:
    """Every call in `source` with the name of the top-level function it is
    in, or "" at module level."""
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "") if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
        found += [(name, node) for node in ast.walk(top) if isinstance(node, ast.Call)]
    return found


def recipe_seeds(source: str) -> list[tuple[str, str]]:
    """(function, label) of every `derive_seed` call in `source` with a
    recipe label among its arguments."""
    return sorted(
        (function, arg.value)
        for function, call in calls(source)
        if called_name(call) == "derive_seed"
        for arg in call.args
        if isinstance(arg, ast.Constant) and arg.value in LABELS
    )


def test_the_walker_finds_every_recipe_seed():
    source = (
        "from pqfl import fedcore\n"
        "from pqfl.fedcore import derive_seed\n"
        "SEED = derive_seed(1, 'data')\n"
        "def build(seed):\n"
        "    return fedcore.derive_seed(seed, 'split'), derive_seed(seed, 'train', 2)\n"
        "class Spec:\n"
        "    def init(self):\n"
        "        return [fedcore.derive_seed(self.seed, 'init')]\n"
    )
    assert recipe_seeds(source) == [("", "data"), ("Spec", "init"), ("build", "split")]


def test_only_build_run_derives_the_recipe_seeds():
    found = {path.name: recipe_seeds(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("protocol.py") == [("build_run", "data"), ("build_run", "init"),
                                        ("build_run", "split")]
    assert {name: seeds for name, seeds in found.items() if seeds} == {}


def test_the_cli_builds_no_run_by_hand():
    steps = sorted((function, called_name(call))
                   for function, call in calls((SRC / "cli.py").read_text())
                   if called_name(call) in RECIPE_STEPS)
    assert steps == []
