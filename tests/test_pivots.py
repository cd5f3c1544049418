"""Pivots travel with each RREF basis.  ``linalg.echelon`` returns them with
the rows, the scalar algebras and emissions keep them next to their basis,
and ``row_coords`` reads them rather than deriving and checking them again
on every call.  ``linalg.pivots`` derives them for a basis built elsewhere,
once, and raises on a basis that is not in RREF.  Each ``nullspace`` call
eliminates once, and a census pass pins its ``rref`` calls."""

import ast
from pathlib import Path

import numpy as np
import pytest

from filterlab import census, linalg, scalars

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "filterlab"

# ``linalg.pivots`` calls in one census pass over corpus/order16: every
# basis that reaches ``row_coords`` there was built by ``echelon``
DERIVATIONS = 0

# ``linalg.rref`` calls in that pass: each ring is echelonised once, in its
# block-matrix layout, each ``nullspace`` call eliminates once, and the
# kernel rows of a centre, a Frobenius-fixed part or a radical are not
# echelonised again (``AssocAlgebra._kernel_rows``)
RREF_CALLS = 1042

# functions of the package that call ``row_coords`` or ``in_row_space``
# without the pivots, so that each call derives them again
DERIVING_SITES = set()


@pytest.fixture(scope="module")
def census_pass():
    """Every (rows, pivots) that ``echelon`` built, every (basis, pivots)
    that ``row_coords`` was given, and the call counts, over one census;
    ``counts["per_nullspace"]`` holds the ``rref`` calls of each
    ``nullspace`` call."""
    built, carried = [], []
    counts = {"pivots": 0, "row_coords": 0, "rref": 0, "per_nullspace": []}
    echelon, pivots, row_coords = linalg.echelon, linalg.pivots, linalg.row_coords
    rref, nullspace = linalg.rref, linalg.nullspace

    def recording_echelon(a, p):
        out = echelon(a, p)
        built.append(out)
        return out

    def counting_pivots(basis):
        counts["pivots"] += 1
        return pivots(basis)

    def recording_row_coords(v, basis, p, piv=None):
        counts["row_coords"] += 1
        if piv is not None:
            carried.append((np.array(basis, dtype=np.int64), piv))
        return row_coords(v, basis, p, piv)

    def counting_rref(a, p):
        counts["rref"] += 1
        return rref(a, p)

    def counting_nullspace(a, p):
        before = counts["rref"]
        out = nullspace(a, p)
        counts["per_nullspace"].append(counts["rref"] - before)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "echelon", recording_echelon)
        m.setattr(linalg, "pivots", counting_pivots)
        m.setattr(linalg, "row_coords", recording_row_coords)
        m.setattr(linalg, "rref", counting_rref)
        m.setattr(linalg, "nullspace", counting_nullspace)
        summary = census.run_census(ROOT / "corpus" / "order16", jobs=1)
    assert not summary.skipped and len(summary.groups) == 14
    return built, carried, counts


def test_carried_pivots_are_the_pivots_of_their_basis(census_pass):
    built, carried, _ = census_pass
    assert built and carried
    for basis, piv in built + carried:
        assert np.array_equal(piv, linalg.pivots(basis))
        assert np.array_equal(basis[:, piv], linalg.identity(len(piv)))


def test_census_derives_pivots_at_most_once_per_basis_built(census_pass):
    built, carried, counts = census_pass
    assert counts["pivots"] == DERIVATIONS <= len(built)
    assert len(carried) == counts["row_coords"] > 0


def test_census_eliminates_once_per_nullspace_and_ring(census_pass):
    _, _, counts = census_pass
    assert counts["per_nullspace"] and set(counts["per_nullspace"]) == {1}
    assert counts["rref"] == RREF_CALLS


def _deriving_sites(tree):
    """Dotted names of the functions enclosing a ``row_coords`` or
    ``in_row_space`` call with fewer than four arguments: the calls that
    leave the pivots to be derived."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                given = len(child.args) + len(child.keywords)
                if name in ("row_coords", "in_row_space") and given < 4:
                    sites.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, ())
    return sites


def test_every_membership_call_in_the_package_passes_pivots():
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        sites |= _deriving_sites(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == DERIVING_SITES


def test_deriving_sites_walker_counts_arguments():
    tree = ast.parse(
        "def f(v, b, p, piv):\n"
        "    return linalg.row_coords(v, b, p, piv), row_coords(v, b, p)\n"
        "class A:\n"
        "    def g(self):\n"
        "        return linalg.in_row_space(v, b, p)\n"
    )
    assert _deriving_sites(tree) == {"f", "A.g"}


@pytest.mark.parametrize("basis", [[[1, 1], [0, 1]], [[2, 0]], [[1, 0], [1, 1]], [[0, 1], [1, 0]]])
def test_a_basis_from_outside_is_checked_once(basis, monkeypatch):
    basis = np.array(basis, dtype=np.int64)
    with pytest.raises(ValueError, match="reduced row echelon"):
        scalars.Emission("U", basis, ["der"])
    with pytest.raises(ValueError, match="reduced row echelon"):
        linalg.row_coords(np.array([1, 0]), basis, 3)
    calls = []
    pivots = linalg.pivots
    monkeypatch.setattr(linalg, "pivots", lambda b: calls.append(1) or pivots(b))
    e = scalars.Emission("U", linalg.identity(2), ["der"])
    assert scalars._der_invariant(e, [np.stack([linalg.identity(2)])] * 3, 3)
    assert calls == [1]
