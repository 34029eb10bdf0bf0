"""Each module of iotid imports a name from the module that defines it.

A name imported from a module that only imports it in turn is a
re-export: the import keeps working after the name moves away, while a
test's patch of that binding reaches no caller. So every ``from .X import
name`` under ``src/iotid/`` must name a ``def``, a ``class`` or an
assignment at the top level of X. And the journal, the world state and the
pipeline import one way: journal.py reads neither of the others, and
state.py reads the journal but not the pipeline.
"""

import ast
from pathlib import Path

import pytest

import iotid

SRC = Path(iotid.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def defined(tree: ast.Module) -> set[str]:
    """The names a module binds at top level with a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def relative_imports(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(module, name, line)`` of every ``from .module import name``, at any depth."""
    return [(node.module, alias.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def test_every_relative_import_names_a_definition_of_its_module():
    trees = {module: parse(module) for module in MODULES}
    definitions = {module: defined(tree) for module, tree in trees.items()}
    imports = {module: relative_imports(tree) for module, tree in trees.items()}
    reexports = [f"{module}.py:{line} imports {name} from .{source}"
                 for module in MODULES for source, name, line in imports[module]
                 if name not in definitions[source]]
    assert reexports == []
    # the bindings that perfbench/ reads on iotid.ledger are imported from their owners
    assert {(source, name) for source, name, _ in imports["ledger"]} >= {
        ("journal", "verify_chain_file"), ("journal", "FLAG_VALUES"),
        ("did", "generate_keypair"), ("codec", "sha256")}


@pytest.mark.parametrize("module, reads", [("journal", {"codec", "did"}),
                                           ("state", {"codec", "did", "journal"})])
def test_the_journal_and_the_state_import_one_way(module, reads):
    assert {source for source, _, _ in relative_imports(parse(module))} <= reads
