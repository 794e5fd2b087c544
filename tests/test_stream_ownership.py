"""Only the memory system knows the post-EXIT fetch-ahead stream.

``MemorySystem`` applies the stream's L1I/L2 fills lazily, so a module that
read or changed its L1I or L2 directly could see them without those fills.
No module under ``src/repro`` but ``uarch/memory_system.py`` may therefore
touch a memory system's ``l1i`` or ``l2``, or read or write one of its
``ahead_*`` fields: defenses change the L2 through
``MemorySystem.l2_install`` and ``l2_invalidate``, and the core reports the
stream through ``start_fetch_ahead``, ``squash_fetch_ahead`` and
``end_fetch_ahead``.  The L1D and the data TLB stay open to defenses.

The one allowed read is the core's inlined L1I hit path in
``O3Core._fetch``: fetch stops once EXIT is fetched, and every run starts by
settling the last run's stream (``MemorySystem.start_run``), so no stream is
pending while it runs.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
OWNER = Path("uarch") / "memory_system.py"
#: (module, enclosing function, attribute) of the one allowed access.
ALLOWED = {(str(Path("uarch") / "core.py"), "_fetch", "l1i")}
CACHES = ("l1i", "l2")


def _is_memory_system(node: ast.expr) -> bool:
    """``memory``, ``self.memory``, ``core.memory`` and the like."""
    if isinstance(node, ast.Name):
        return node.id.endswith("memory")
    return isinstance(node, ast.Attribute) and node.attr.endswith("memory")


def stream_accesses(source: str) -> List[Tuple[str, str, int]]:
    """``(enclosing function, attribute, line)`` of every memory-system
    ``l1i``/``l2`` access and every ``ahead_*`` field access in ``source``."""
    found: List[Tuple[str, str, int]] = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and (
            (node.attr in CACHES and _is_memory_system(node.value))
            or node.attr.lstrip("_").startswith("ahead_")
        ):
            found.append((function, node.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_memory_system_touches_the_l1i_l2_and_the_stream():
    offending = []
    allowed_seen = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE)
        if module == OWNER:
            continue
        for function, attribute, line in stream_accesses(path.read_text()):
            key = (str(module), function, attribute)
            if key in ALLOWED:
                allowed_seen.add(key)
            else:
                offending.append(f"{module}:{line} {function}: .{attribute}")
    assert offending == []
    # The stated exception still exists, so the docstring stays true.
    assert allowed_seen == ALLOWED


def test_the_check_sees_both_kinds_of_access():
    source = (
        "def hook(self, line, cycle):\n"
        "    memory = self.memory\n"
        "    if memory.ahead_pc is not None:\n"
        "        memory.l2.install(line)\n"
        "    self.core.memory.l1i.probe(line)\n"
        "    self.config.l1i.line_size\n"
        "    memory.l1d.install(line)\n"
    )
    assert stream_accesses(source) == [
        ("hook", "ahead_pc", 3),
        ("hook", "l2", 4),
        ("hook", "l1i", 5),
    ]
