"""Only sig.py describes a parameter set.

Every set's sizes, payload digest and name are one `SchemeMetadata` in
`sig._SETS`. A backend is handed its set's metadata and builds none of its
own, so a second description that could drift from the table cannot appear.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pqfl"


def metadata_constructions(source: str) -> list[int]:
    """Lines of every call to SchemeMetadata in `source`: by its name, by an
    alias it was imported under, or as an attribute (sig.SchemeMetadata)."""
    tree = ast.parse(source)
    names = {"SchemeMetadata"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "SchemeMetadata" and alias.asname
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in names or getattr(node.func, "attr", None) == "SchemeMetadata")
    )


def test_the_walker_finds_every_construction():
    source = (
        "from pqfl.sig import SchemeMetadata as Meta\n"
        "from pqfl import sig\n"
        "SchemeMetadata('A', 1, 1, 1, 'sha256', 'A-1')\n"
        "sig.SchemeMetadata(name='B')\n"
        "Meta(*row)\n"
        "kind = SchemeMetadata\n"
        "isinstance(kind, SchemeMetadata)\n"
    )
    assert metadata_constructions(source) == [3, 4, 5]


def test_only_sig_constructs_scheme_metadata():
    found = {path.name: metadata_constructions(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("sig.py"), "the walker found no construction at all"
    assert {name: lines for name, lines in found.items() if lines} == {}
