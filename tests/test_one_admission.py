"""One admission loop, one delivery path, one accumulation path, one plan.

The server admits uploads in `server_collect_and_verify` alone, as the round
driver (`_run_rounds`) alone delivers messages through the channel,
`fedcore.RunningSum.add` alone adds an update's delta into a sum, and
`protocol._hand_outs` alone decides which clients share a stack. So a
second, batch admission path cannot come back beside the streamed one, nor
a sorted-batch sum beside the running one, nor stacking state kept per
round beside the plan made once a run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pqfl"


def _top_level_functions(tree: ast.Module):
    """Each module-level function and each method, with the functions nested in it."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _admits_an_upload(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "_authenticate"
        and any(isinstance(arg, ast.Attribute) and arg.attr == "UPDATE_SUBMISSION" for arg in node.args)
    )


def _delivers(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "deliver"
        and isinstance(node.value, ast.Name) and node.value.id == "chan"
    )


def _operands_of_a_sum(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
        return [node.value]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return [node.left, node.right]
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("sum", "add", "fsum"):
            return [*node.args, *(k.value for k in node.keywords)]
    return []


def _adds_a_delta(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "delta"
        for operand in _operands_of_a_sum(node)
        for sub in ast.walk(operand)
    )


def functions_that(found, source: str) -> list[str]:
    """The top-level functions and methods of `source` in which `found` holds for some node."""
    return [
        name
        for name, fn in _top_level_functions(ast.parse(source))
        if any(found(node) for node in ast.walk(fn))
    ]


def test_the_walker_finds_every_use():
    source = (
        "def collect(env):\n"
        "    _authenticate(env, MsgType.UPDATE_SUBMISSION, keys, rounds, True, 0, [])\n"
        "def announce(env):\n"
        "    _authenticate(env, MsgType.PUBLIC_KEY_ANNOUNCE, keys, rounds, True, 0, [])\n"
        "def drive(chan):\n"
        "    def delivered(replies):\n"
        "        for cid, reply in replies:\n"
        "            yield chan.deliver(reply, Direction.CLIENT_TO_SERVER, cid)\n"
        "    frames = (chan.deliver(b, Direction.SERVER_TO_CLIENT, c) for c in ids)\n"
        "class Batch:\n"
        "    def admit(self, blobs, chan):\n"
        "        for blob in map(chan.deliver, blobs):\n"
        "            _authenticate(blob, codec.MsgType.UPDATE_SUBMISSION, keys, r, True, 0, [])\n"
    )
    assert functions_that(_admits_an_upload, source) == ["collect", "Batch.admit"]
    assert functions_that(_delivers, source) == ["drive", "Batch.admit"]


def test_the_walker_finds_every_sum_of_deltas():
    source = (
        "class RunningSum:\n"
        "    def add(self, update):\n"
        "        self._acc += update.delta.values\n"
        "def batch(updates):\n"
        "    return sum(u.delta.values for u in updates)\n"
        "def pairwise(a, b):\n"
        "    return a.delta.values + b.delta.values\n"
        "def numpy_add(acc, u):\n"
        "    np.add(acc, u.delta.values, out=acc)\n"
        "def fold(total, updates):\n"
        "    for u in updates:\n"
        "        total.add(u)\n"
        "        ids.add(u.client_id)\n"
        "    acc = acc + other\n"
    )
    assert functions_that(_adds_a_delta, source) == [
        "RunningSum.add", "batch", "pairwise", "numpy_add",
    ]


def test_one_function_admits_uploads_and_one_delivers():
    admits, delivers = [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        admits += [f"{path.name}:{name}" for name in functions_that(_admits_an_upload, source)]
        delivers += [f"{path.name}:{name}" for name in functions_that(_delivers, source)]
    assert admits == ["protocol.py:server_collect_and_verify"]
    assert delivers == ["protocol.py:_run_rounds"]


def test_one_function_adds_deltas_into_a_sum():
    adders = []
    for path in sorted(SRC.glob("*.py")):
        adders += [f"{path.name}:{name}" for name in functions_that(_adds_a_delta, path.read_text())]
    assert adders == ["fedcore.py:RunningSum.add"]


def stacking_reads(source: str) -> dict[str, list[str]]:
    """Each top-level function's or method's reads of `shard_key` or
    `_stack_size`, which decide which clients may share a stack."""
    reads = {}
    for name, fn in _top_level_functions(ast.parse(source)):
        found = [getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(fn)]
        if found := sorted(n for n in found if n in ("shard_key", "_stack_size")):
            reads[name] = found
    return reads


def test_the_walker_finds_every_read_of_a_stacking_rule():
    source = (
        "def plan(clients):\n"
        "    return groupby(clients, lambda c: fedcore.shard_key(c.dataset))\n"
        "def run(clients):\n"
        "    window = max(map(_stack_size, clients))\n"
        "    def exchange(stack, client):\n"
        "        return len(stack) == _stack_size(client)\n"
        "def sizes(stack):\n"
        "    return len(stack)\n"
    )
    assert stacking_reads(source) == {"plan": ["shard_key"], "run": ["_stack_size", "_stack_size"]}


def test_one_function_plans_the_stacks():
    reads = {}
    for path in sorted(SRC.glob("*.py")):
        reads |= {f"{path.name}:{name}": found for name, found in stacking_reads(path.read_text()).items()}
    assert reads == {
        "fedcore.py:train_stack": ["shard_key"],  # checks the stack it is given
        "protocol.py:_hand_outs": ["_stack_size", "shard_key"],  # the plan
        # the window formula, and the check that sends a client's whole round to the pool
        "protocol.py:run_training": ["_stack_size", "_stack_size"],
    }
