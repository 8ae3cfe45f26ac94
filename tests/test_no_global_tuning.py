"""pqfl tunes nothing that belongs to the whole process.

A library that sets the interpreter's thread switch interval, pins the
process to CPUs or tunes the allocator changes every other thread and
library in the process that imports it. No module under `src/pqfl` names
`sys.setswitchinterval`, `os.sched_setaffinity` or `mallopt`: not as a
call, an attribute, a bare name, an import or a string such as a ctypes
symbol lookup.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pqfl"
GLOBAL_TUNING = {"setswitchinterval", "sched_setaffinity", "mallopt"}


def global_tuning(source: str) -> list[int]:
    """Lines of `source` that name one of `GLOBAL_TUNING`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in GLOBAL_TUNING
        or isinstance(node, ast.Name) and node.id in GLOBAL_TUNING
        or isinstance(node, ast.alias) and node.name in GLOBAL_TUNING
        or isinstance(node, ast.Constant) and node.value in GLOBAL_TUNING
    )


def test_the_walker_finds_every_tuning():
    source = (
        "import os, sys\n"
        "from sys import setswitchinterval\n"
        "sys.setswitchinterval(2e-4)\n"
        "os.sched_getaffinity(0)\n"
        "os.sched_setaffinity(0, {0})\n"
        "getattr(libc, 'mallopt')(-8, 1)\n"
        "libc.mallopt(-8, 1)\n"
        "setswitchinterval(2e-4)\n"
    )
    assert global_tuning(source) == [2, 3, 5, 6, 7, 8]


def test_no_module_tunes_the_process():
    found = {path.name: global_tuning(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert "sched_getaffinity" in (SRC / "protocol.py").read_text(), "the walker read no source"
