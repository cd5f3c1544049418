import functools
import importlib.util
import sys
from pathlib import Path

import pytest

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
