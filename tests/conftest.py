import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from filterlab import monoid as mon, refine, scalars
from filterlab.pcgroup import parse_pcg_file, parse_pcgroup

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


@functools.lru_cache(maxsize=None)
def load(name: str):
    """Load a corpus group by stem (cached per test session)."""
    hits = list(CORPUS.glob(f"**/{name}.pcg"))
    assert len(hits) == 1, f"corpus lookup for {name}: {hits}"
    return parse_pcg_file(hits[0])


@functools.lru_cache(maxsize=None)
def perfbench_workloads():
    """``perfbench/workloads.py`` as a module (for its ladder products)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # registered first: it defines dataclasses
    return module


@functools.lru_cache(maxsize=None)
def build_corpus():
    """``scripts/build_corpus.py`` as a module (for its fingerprint helpers)."""
    spec = importlib.util.spec_from_file_location("build_corpus", ROOT / "scripts" / "build_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_candidates(L):
    """The full build-and-sort of a table's candidates, the definition that
    ``refine.CandidateTable`` searches rank by rank: all five rings and every
    emission built on every in-box product, the proper emissions sorted.
    Returns the candidates and the five ring dimensions per product, keyed
    "s|t"."""
    out, ring_dims = [], {}
    grades = [s for s in L.comps if L.dim(s) > 0]
    for s in grades:
        for t in grades:
            u = mon.add(s, t)
            if L.dim(u) == 0:
                continue
            b = scalars.bimap_from_lie_pair(L, s, t)
            key = ",".join(str(x) for x in s) + "|" + ",".join(str(x) for x in t)
            ring_dims[key] = {k: ring.dim for k, ring in scalars.all_rings(b).items()}
            side_grade = {"U": s, "V": t, "W": u}
            for e in scalars.characteristic_subspaces(b):
                g = side_grade[e.side]
                if 0 < e.dim < L.dim(g):
                    rank = scalars.PROVENANCE_RANK[e.provenance]
                    out.append((refine._candidate_sort_key(rank, g, e.basis), g, e.basis, e.provenances))
    out.sort(key=lambda c: c[0])
    return out, ring_dims


def aut_inverse(a):
    """a^-1 as a^(k-1), k the order of a: compose a with itself until the
    identity (the package inverts no automorphism)."""
    identity = tuple(a.group.generators())
    prev, cur = None, a
    while cur.images != identity:
        prev, cur = cur, cur.compose(a)
    return a if prev is None else prev


@functools.lru_cache(maxsize=None)
def corpus_paths():
    return tuple(sorted(CORPUS.glob("**/*.pcg")))


@pytest.fixture(scope="session")
def d8():
    return load("d8")


@pytest.fixture(scope="session")
def q8():
    return load("q8")


@pytest.fixture(scope="session")
def h27():
    return load("h27")


@pytest.fixture(scope="session")
def corpus_groups():
    return {p.stem: parse_pcg_file(p) for p in corpus_paths()}
