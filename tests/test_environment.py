"""The library reads no setting from the environment but its two deployment ones.

A choice that changes what a run computes belongs in a flag or a value, where
it shows in the command line and in the code. The environment may only say
where libcrypto is (PQFL_LIBCRYPTO) and how much to log (PQFL_LOG).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pqfl"
ALLOWED = {"PQFL_LIBCRYPTO", "PQFL_LOG"}
_ENVIRON = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[tuple[int, object]]:
    """(line, name) of every use of os.environ or os.getenv in `source`. The
    name is the literal read, or None when the use reads no single literal."""
    tree = ast.parse(source)
    found = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRON
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found[id(node)] = (node.lineno, None)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _ENVIRON for alias in node.names):
                found[id(node)] = (node.lineno, None)
    for node in ast.walk(tree):
        use = key = None
        if isinstance(node, ast.Call) and node.args and isinstance(node.func, ast.Attribute):
            if node.func.attr == "get" and id(node.func.value) in found:  # os.environ.get(k)
                use = node.func.value
            elif id(node.func) in found:  # os.getenv(k)
                use = node.func
            key = node.args[0]
        elif isinstance(node, ast.Subscript) and id(node.value) in found:  # os.environ[k]
            use, key = node.value, node.slice
        if use is not None and isinstance(key, ast.Constant):
            found[id(use)] = (found[id(use)][0], key.value)
    return sorted(found.values(), key=lambda read: read[0])


def test_the_walker_finds_every_kind_of_read():
    source = (
        "import os\n"
        "os.environ.get('PQFL_X', 'a')\n"
        "os.getenv('PQFL_LOG')\n"
        "os.environ['B']\n"
        "dict(os.environ)\n"
        "from os import getenv\n"
    )
    assert environment_reads(source) == [
        (2, "PQFL_X"), (3, "PQFL_LOG"), (4, "B"), (5, None), (6, None),
    ]


def test_the_library_reads_only_its_deployment_settings():
    reads = {
        f"{path.name}:{line}": name
        for path in sorted(SRC.glob("*.py"))
        for line, name in environment_reads(path.read_text())
    }
    assert set(reads.values()) & ALLOWED, "the walker found no read at all"
    assert {where: name for where, name in reads.items() if name not in ALLOWED} == {}
