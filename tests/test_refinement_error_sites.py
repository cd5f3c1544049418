"""Handlers of ``RefinementError`` in the package stay confined to a known
list of sites.  Every candidate inserts (``refine.refine_to_fixpoint``), so
a refinement never catches a failed insertion to try the next candidate: a
new handler that skips past one fails here.  The chain closure needs no box
to outgrow (``refine._close``), so ``insert_refinement`` has no retry to
catch; only ``analyze_file`` handles one, recording a group that failed to
refine as skipped."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "filterlab"

HANDLING = {"analyze_file"}


def _names(node):
    """The exception names an ``except`` clause lists, bare or dotted."""
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(e) for e in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def _handler_sites(tree, exc="RefinementError"):
    """Dotted names of the classes and functions enclosing each ``except``
    clause that names ``exc``; "<module>" for one at module level."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.ExceptHandler) and exc in _names(child.type):
                sites.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, ())
    return sites


def test_refinement_error_handlers_are_the_known_list():
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        sites |= _handler_sites(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == HANDLING


def test_handler_walker_names_enclosing_scope():
    tree = ast.parse(
        "class A:\n"
        "    def f(self):\n"
        "        try:\n"
        "            pass\n"
        "        except (ValueError, refine.RefinementError):\n"
        "            pass\n"
        "def g():\n"
        "    def inner():\n"
        "        try:\n"
        "            pass\n"
        "        except RefinementError as exc:\n"
        "            pass\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
        "try:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
    )
    assert _handler_sites(tree) == {"A.f", "g.inner"}
