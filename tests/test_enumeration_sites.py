"""No element enumeration outside ``oracle``: a ``.elements()`` call
anywhere else in the package fails here (ROADMAP, "No element enumeration
outside oracle").  Centralizers, Omega_1(Z) and intersections are kernels
down the pc series (``pcgroup.kernel_by_layers``), so the list of known
sites is empty."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "filterlab"

ENUMERATING = set()


def _enumeration_sites(tree):
    """Dotted names of the classes and functions enclosing each
    ``.elements()`` call; "<module>" for a call at module level."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "elements"
            ):
                sites.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, ())
    return sites


def test_enumeration_sites_outside_oracle_are_the_known_list():
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "oracle.py":
            sites |= _enumeration_sites(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == ENUMERATING


def test_enumeration_sites_walker_names_enclosing_scope():
    tree = ast.parse(
        "class A:\n"
        "    def f(self, G):\n"
        "        return [x for x in G.elements()]\n"
        "def g(H):\n"
        "    def inner():\n"
        "        return H.elements()\n"
        "    return inner\n"
        "X = G.elements\n"
    )
    assert _enumeration_sites(tree) == {"A.f", "g.inner"}
