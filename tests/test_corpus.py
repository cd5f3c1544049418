"""Every shipped presentation parses, is consistent, and the catalog counts hold."""

from collections import Counter

from filterlab.autfilter import load_sidecar
from filterlab.pcgroup import parse_pcg_file

from conftest import CORPUS, build_corpus, corpus_paths


def test_all_files_parse_and_are_consistent():
    count = 0
    for path in corpus_paths():
        G = parse_pcg_file(path)  # parse runs the overlap consistency check
        assert G.order == G.p ** G.n
        count += 1
    assert count >= 40


def test_catalog_counts():
    by_dir = Counter(p.parent.name for p in corpus_paths())
    assert by_dir["order16"] == 14
    assert by_dir["order81"] == 15
    assert by_dir["products"] == 4
    assert by_dir["basic"] >= 10


def test_orders_match_directories():
    for path in corpus_paths():
        G = parse_pcg_file(path)
        if path.parent.name == "order16":
            assert G.order == 16
        elif path.parent.name == "order81":
            assert G.order == 81


def test_all_orders_within_oracle_range():
    for path in corpus_paths():
        G = parse_pcg_file(path)
        assert G.order <= 2 ** 10


def test_primes_covered():
    primes = {parse_pcg_file(p).p for p in corpus_paths()}
    assert {2, 3, 5, 7} <= primes


def test_sidecar_parses():
    d8 = parse_pcg_file(CORPUS / "basic" / "d8.pcg")
    maps = load_sidecar(d8, CORPUS / "basic" / "d8.aut")
    assert len(maps) == 2


def test_build_corpus_reproduces_the_shipped_files(tmp_path, monkeypatch, capsys):
    build = build_corpus()
    monkeypatch.setattr(build, "CORPUS", tmp_path)
    build.main()
    assert capsys.readouterr().out.endswith("corpus complete\n")
    built = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    shipped = sorted(p.relative_to(CORPUS) for p in CORPUS.rglob("*") if p.is_file())
    assert built == shipped and len(built) == 47
    assert all((tmp_path / p).read_bytes() == (CORPUS / p).read_bytes() for p in built)
