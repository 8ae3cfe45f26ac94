"""Only codec.ReusedBuffer knows where a room starts in its buffer.

Every envelope is written into the room its signer hands over. No module
finds a room's buffer again through a view's `.obj`, and none offsets a view
by `BUFFER_LEAD` outside `ReusedBuffer`, so a room that `ReusedBuffer.take`
did not cut is written where it starts, not one lead further on.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pqfl"


def _nodes_in_reused_buffer(tree: ast.AST) -> set[int]:
    return {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "ReusedBuffer"
        for node in ast.walk(cls)
    }


def _names_lead(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Name) and node.id == "BUFFER_LEAD"
        or isinstance(node, ast.Attribute) and node.attr == "BUFFER_LEAD"
        or isinstance(node, ast.alias) and "BUFFER_LEAD" in (node.name, node.asname)
    )


def room_rediscoveries(source: str) -> list[int]:
    """Lines of `source` that read an `.obj` attribute, or name `BUFFER_LEAD`
    (as a name, an attribute or an import) outside class `ReusedBuffer`."""
    tree = ast.parse(source)
    inside = _nodes_in_reused_buffer(tree)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "obj" and isinstance(node.ctx, ast.Load)
        or id(node) not in inside and _names_lead(node)
    )


def lead_uses_in_reused_buffer(source: str) -> int:
    tree = ast.parse(source)
    inside = _nodes_in_reused_buffer(tree)
    return sum(1 for node in ast.walk(tree) if id(node) in inside and _names_lead(node))


def test_the_walker_finds_every_rediscovery():
    source = (
        "from pqfl.codec import BUFFER_LEAD as lead\n"
        "class ReusedBuffer:\n"
        "    BUFFER_LEAD = 1\n"
        "    def take(self, n):\n"
        "        return memoryview(self._buf)[self.BUFFER_LEAD :]\n"
        "def seal(view):\n"
        "    return memoryview(view.obj)[ReusedBuffer.BUFFER_LEAD :]\n"
        "BUFFER_LEAD = 1\n"
        "view.obj = None\n"
    )
    assert room_rediscoveries(source) == [1, 7, 7, 8]
    assert lead_uses_in_reused_buffer(source) == 2


def test_no_module_rediscovers_where_a_room_starts():
    found = {path.name: room_rediscoveries(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert lead_uses_in_reused_buffer((SRC / "codec.py").read_text()), "the walker found no lead at all"
