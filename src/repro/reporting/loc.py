"""Lines-of-code accounting for the defense integrations (Table 11).

The paper's Table 11 reports how many lines had to be added to each gem5
defense to integrate it with AMuLeT, split into test harness, socket-based
communication and trace extraction.  In this repository the equivalent split
is: the defense's own declaration (since the spec-kit refactor, a
:class:`~repro.defenses.spec.DefenseSpec` plus optional escape-hatch hooks),
the shared spec compiler that turns declarations into behaviour, the
executor plumbing shared by all defenses, and the trace extraction code.
The absolute numbers differ from the paper (different languages, different
simulators); the point reproduced is that the per-defense integration cost
is small and mostly shared — and the spec kit pushes the per-defense part
down to the size of its declaration.
"""

from __future__ import annotations

import ast
import inspect
from typing import Dict, List, Optional

from repro.defenses import compile as compile_module
from repro.defenses import registry as defense_registry
from repro.defenses import spec as spec_module
from repro.executor import executor as executor_module
from repro.executor import traces as traces_module


def _count_module_loc(module) -> int:
    """Count non-blank, non-comment source lines of a module."""
    source = inspect.getsource(module)
    count = 0
    in_docstring = False
    for raw_line in source.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if in_docstring:
            # A docstring ends on the line its closing quotes end.
            in_docstring = not line.endswith(('"""', "'''"))
            continue
        if line.startswith(('"""', "'''")):
            # Opening quotes; a single-line docstring closes on the same line.
            in_docstring = line.count(line[:3]) < 2
            continue
        if line.startswith("#"):
            continue
        count += 1
    return count


def _spec_statement_loc(module) -> Optional[int]:
    """Source lines of the module's ``DefenseSpec(...)`` declaration.

    Counts the non-blank, non-comment lines of every top-level assignment
    whose value is a ``DefenseSpec(...)`` call — the "spec lines" a new
    defense costs, excluding imports, hooks and the compile call.  Returns
    None when the module declares no spec (hand-written defenses).
    """
    source = inspect.getsource(module)
    lines = source.splitlines()
    tree = ast.parse(source)
    total = 0
    found = False
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        func_name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if func_name != "DefenseSpec":
            continue
        found = True
        for raw_line in lines[node.lineno - 1 : node.end_lineno]:
            line = raw_line.strip()
            if line and not line.startswith("#"):
                total += 1
    return total if found else None


def spec_kit_loc() -> int:
    """Shared spec-kit cost: the declaration vocabulary plus the compiler."""
    return _count_module_loc(spec_module) + _count_module_loc(compile_module)


def count_defense_loc(defense_name: str) -> Dict[str, Optional[int]]:
    """LoC breakdown for one defense.

    ``spec_loc`` is the defense's own ``DefenseSpec(...)`` declaration (None
    for hand-written defenses); ``defense_model`` is its whole module
    including hooks; ``spec_kit`` / ``executor_plumbing`` /
    ``trace_extraction`` are shared across all defenses.
    """
    defense_class = defense_registry.defense_class(defense_name)
    defense_module = inspect.getmodule(defense_class)
    return {
        "spec_loc": _spec_statement_loc(defense_module),
        "defense_model": _count_module_loc(defense_module),
        "spec_kit": spec_kit_loc(),
        "executor_plumbing": _count_module_loc(executor_module),
        "trace_extraction": _count_module_loc(traces_module),
    }


def loc_table(include_plugins: bool = True) -> List[Dict[str, object]]:
    """Table-11-style rows for every defense."""
    rows: List[Dict[str, object]] = []
    for name in defense_registry.available_defenses():
        if name == "baseline":
            continue
        if not include_plugins and defense_registry.registry.source(name) != "builtin":
            continue
        breakdown = count_defense_loc(name)
        shared = (
            breakdown["spec_kit"]
            + breakdown["executor_plumbing"]
            + breakdown["trace_extraction"]
        )
        rows.append(
            {
                "defense": name,
                "spec_loc": breakdown["spec_loc"],
                "defense_model_loc": breakdown["defense_model"],
                "spec_kit_loc": breakdown["spec_kit"],
                "executor_plumbing_loc": breakdown["executor_plumbing"],
                "trace_extraction_loc": breakdown["trace_extraction"],
                "total_loc": breakdown["defense_model"] + shared,
            }
        )
    return rows
