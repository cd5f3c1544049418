import json
import sys

import pytest

from filterlab import cli, series
from filterlab.cli import main
from filterlab.pcgroup import direct_product, parse_pcg_file

from conftest import CORPUS, load


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_good_group(capsys):
    code, out, _ = run_cli(capsys, "verify", str(CORPUS / "basic" / "d8.pcg"))
    assert code == 0
    assert "PASS oracle-equivalence" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "path", sorted((CORPUS / "products").glob("*.pcg")), ids=lambda path: path.stem
)
def test_verify_passes_on_the_product_corpus(path, capsys):
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0, out


def test_verify_syntax_error(tmp_path, capsys):
    bad = tmp_path / "broken.pcg"
    bad.write_text("p 2\nn 2\npow 1 = zebra\n")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert "line 3" in err


def test_verify_inconsistent_relations(tmp_path, capsys):
    bad = tmp_path / "incoherent.pcg"
    bad.write_text("p 2\nn 4\ncomm 2 1 = g3\ncomm 3 2 = g4\n")
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert "FAIL consistency" in out
    assert "overlap" in out


def test_verify_h27(capsys):
    import time

    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, "verify", str(CORPUS / "basic" / "h27.pcg"))
    assert code == 0
    assert time.monotonic() - t0 < 5.0


def test_report_series(capsys):
    code, out, _ = run_cli(
        capsys, "report", str(CORPUS / "basic" / "d8.pcg"), "--stages", "series"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["series"]["lower_central"]["orders"] == [8, 8, 2, 1]
    assert blob["series"]["upper_central"]["orders"] == [1, 2, 8]


def test_report_lie(capsys):
    code, out, _ = run_cli(
        capsys, "report", str(CORPUS / "basic" / "h27.pcg"), "--stages", "lie"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["lie"]["dims"] == {"1": 2, "2": 1, "3": 0}
    assert any(v for v in blob["lie"]["brackets"].values())


def test_report_refine_classical(capsys):
    code, out, _ = run_cli(
        capsys,
        "report",
        str(CORPUS / "order16" / "g16_14_c2_4.pcg"),
        "--stages",
        "refine",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["refine"]["classification"] == "classical"


def test_report_multiple_stages_and_scalars(capsys):
    code, out, _ = run_cli(
        capsys,
        "report",
        str(CORPUS / "basic" / "d8.pcg"),
        "--stages",
        "series,lie,scalars,aut",
    )
    assert code == 0
    blob = json.loads(out)
    assert "scalars" in blob and "aut" in blob
    pair = blob["scalars"]["1;1"]
    assert pair["dims"]["Mid"] == 4  # adjoint algebra of the symplectic form
    assert pair["cent_idempotents"] == 1


def test_report_unknown_stage(capsys):
    code, _, err = run_cli(
        capsys, "report", str(CORPUS / "basic" / "d8.pcg"), "--stages", "nope"
    )
    assert code == 2
    assert "unknown stage" in err


def test_report_stable_key_order(capsys):
    args = ["report", str(CORPUS / "basic" / "q8.pcg"), "--stages", "series,lie"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_census_table_mode(capsys):
    code, out, _ = run_cli(capsys, "census", str(CORPUS / "order16"))
    assert code == 0
    assert "16" in out and "14" in out and "8" in out


def test_census_empty_dir(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "census", str(tmp_path))
    assert code == 0
    assert "n/a" in out


def test_census_skips_unreadable(tmp_path, capsys):
    (tmp_path / "ok.pcg").write_text("p 2\nn 1\n")
    (tmp_path / "bad.pcg").write_text("p 2\nn 2\npow 1 = wat\n")
    code, out, _ = run_cli(capsys, "census", str(tmp_path), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["orders"]["2"]["total"] == 1
    assert len(blob["skipped"]) == 1


def test_census_not_a_directory(capsys):
    code, _, err = run_cli(capsys, "census", str(CORPUS / "basic" / "d8.pcg"))
    assert code == 2


def test_aut_with_sidecar(capsys):
    code, out, _ = run_cli(
        capsys,
        "aut",
        str(CORPUS / "basic" / "d8.pcg"),
        "--sidecar",
        str(CORPUS / "basic" / "d8.aut"),
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["generators"] == 2
    assert blob["dims_by_grade"] == {"1": 2}
    assert blob["pair_violations"] == []


def test_inline_aut_block_matches_its_sidecar(tmp_path, capsys):
    """Inline `aut:` lines keep their blank separators: appended to d8.pcg
    the block gives the same two maps as the same lines in a sidecar."""
    block = "aut: g1 -> g1 g3\n\naut: g2 -> g2 g3\n"
    d8 = CORPUS / "basic" / "d8.pcg"
    inline = tmp_path / "d8.pcg"
    inline.write_text(d8.read_text() + block)
    sidecar = tmp_path / "d8.aut"
    sidecar.write_text(block)
    got = run_cli(capsys, "aut", str(inline))
    assert got == run_cli(capsys, "aut", str(d8), "--sidecar", str(sidecar))
    assert got[0] == 0 and json.loads(got[1])["generators"] == 2


def test_report_aut_stage_reads_inline_aut_lines(tmp_path, capsys):
    """Without a sidecar, ``report --stages aut`` adds the file's own
    ``aut:`` maps to the central automorphisms, as ``aut`` reads them: an
    inline block and the same lines as a sidecar give the same stage."""
    block = "aut: g1 -> g1 g3\n\naut: g2 -> g2 g3\n"
    d8 = CORPUS / "basic" / "d8.pcg"
    inline = tmp_path / "d8.pcg"
    inline.write_text(d8.read_text() + block)
    sidecar = tmp_path / "d8.aut"
    sidecar.write_text(block)
    code, out, err = run_cli(capsys, "report", str(inline), "--stages", "aut")
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, "report", str(d8), "--stages", "aut", "--sidecar", str(sidecar))
    plain = json.loads(run_cli(capsys, "report", str(d8), "--stages", "aut")[1])["aut"]
    assert json.loads(out)["aut"]["central_generators"] == plain["central_generators"] + 2 == 4


def test_report_names_the_line_of_a_bad_inline_aut_map(tmp_path, capsys):
    text = (CORPUS / "basic" / "d8.pcg").read_text()
    path = tmp_path / "d8.pcg"
    path.write_text(text + "aut: g2 -> g2 gx\n")
    last = len(text.splitlines()) + 1
    code, out, err = run_cli(capsys, "report", str(path), "--stages", "aut")
    assert (code, out) == (2, "")
    assert err == f"automorphism error: line {last}: bad word token 'gx'\n"
    # a stage list without aut does not read the maps
    assert run_cli(capsys, "report", str(path), "--stages", "series")[0] == 0


def test_an_inline_aut_error_names_the_file_line(tmp_path, capsys):
    text = (CORPUS / "basic" / "d8.pcg").read_text()
    path = tmp_path / "d8.pcg"
    path.write_text(text + "aut: g1 -> g1 g3\n\naut: g2 -> g2 gx\n")
    last = len(text.splitlines()) + 3
    assert parse_pcg_file(path).aut_lines == [
        (last - 2, "aut: g1 -> g1 g3"),
        (last - 1, ""),
        (last, "aut: g2 -> g2 gx"),
    ]
    code, out, err = run_cli(capsys, "aut", str(path))
    assert (code, out) == (1, "")
    assert err == f"automorphism error: line {last}: bad word token 'gx'\n"


def test_report_aut_stage_above_two_to_the_fourteen():
    """h27 x h27 x h27 has order 3^9 = 19683 > 2^14 and 18 central
    automorphisms; the pair law is checked with no map inverted."""
    h27 = load("h27")
    G = direct_product(direct_product(h27, h27), h27)
    aut = cli._stage_payloads(G, ["aut"])["aut"]
    assert aut["central_generators"] == 18
    assert aut["pair_violations"] == []
    assert aut["dims_by_grade"] == {"1": 18}


@pytest.mark.parametrize(
    "stages, built",
    [
        (["series"], {"lower_central", "upper_central", "exponent_p_lcs"}),
        (["lie"], {"upper_central", "exponent_p_lcs"}),
        (["scalars", "aut"], {"exponent_p_lcs"}),
        (["refine"], set()),
    ],
)
def test_report_builds_only_the_series_its_stages_read(monkeypatch, stages, built):
    calls = set()
    for name in ("lower_central", "upper_central", "exponent_p_lcs"):
        real = getattr(series, name)
        monkeypatch.setattr(series, name, lambda G, real=real, name=name: calls.add(name) or real(G))
    cli._stage_payloads(load("d8"), stages)
    assert calls == built


def test_aut_without_maps(capsys):
    code, _, err = run_cli(capsys, "aut", str(CORPUS / "basic" / "h27.pcg"))
    assert code == 2
    assert "no automorphisms" in err
