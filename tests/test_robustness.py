"""Failures surface as explicit exceptions or census entries, never as
asserts or an aborted census."""

import json
import shutil
import subprocess
import sys
import time

import pytest

from filterlab import census, pcgroup, refine, scalars
from filterlab.cli import main
from filterlab.pcgroup import centralizer_mod, full_subgroup, trivial_subgroup

from conftest import CORPUS, ROOT

GROUPS = ("g16_01_c16", "g16_03_c2sq_rtimes_c4", "g16_07_d16")


def _artifact_groups():
    return json.loads((ROOT / "artifacts" / "census_order16.json").read_text())["groups"]


def _census_dir(tmp_path, rel_paths):
    d = tmp_path / "groups"
    d.mkdir()
    for rel in rel_paths:
        shutil.copy(CORPUS / rel, d)
    return d


def _failing_refine(monkeypatch, group, inner=None):
    """Make the refinement of one group raise: in refine_to_fixpoint itself
    when inner is None, else in the refine function ``inner`` it calls."""
    if inner is None:
        original = refine.refine_to_fixpoint

        def patched(G, group_id=""):
            if group_id == group:
                raise refine.RefinementError("injected failure")
            return original(G, group_id=group_id)

        monkeypatch.setattr(refine, "refine_to_fixpoint", patched)
        return
    original_inner = getattr(refine, inner)

    def patched_inner(f, *args):
        if f.group.name == group:
            raise refine.RefinementError("injected failure")
        return original_inner(f, *args)

    monkeypatch.setattr(refine, inner, patched_inner)


# A failed insertion is a defect, since every candidate inserts: it is recorded
# as a skipped group, not passed over as if the candidate did not refine.
@pytest.mark.parametrize(
    "inner, stage", [(None, "refine"), ("insert_refinement", "refine")]
)
def test_refine_failure_is_one_skipped_entry(tmp_path, monkeypatch, inner, stage):
    d = _census_dir(tmp_path, [f"order16/{g}.pcg" for g in GROUPS])
    bad = "g16_03_c2sq_rtimes_c4"  # flagged, so an insertion runs
    _failing_refine(monkeypatch, bad, inner)
    out = census.run_census(d).to_json()
    assert out["skipped"] == [f"{bad}: {stage}: injected failure"]
    want = _artifact_groups()
    assert out["groups"] == {g: want[g] for g in GROUPS if g != bad}
    assert out["orders"]["16"]["total"] == len(GROUPS) - 1


@pytest.mark.parametrize(
    "exc", [ArithmeticError("arith"), ValueError("value"), MemoryError("memory")]
)
def test_other_refine_errors_are_recorded(tmp_path, monkeypatch, exc):
    d = _census_dir(tmp_path, ["order16/g16_01_c16.pcg"])

    def boom(G, group_id=""):
        raise exc

    monkeypatch.setattr(refine, "refine_to_fixpoint", boom)
    out = census.run_census(d).to_json()
    assert out["skipped"] == [f"g16_01_c16: refine: {exc}"]
    assert out["groups"] == {}


def test_a_flag_error_is_one_skipped_entry(tmp_path, monkeypatch):
    """A ring built only to decide a census flag can fail as well: the group
    is one skipped entry and the census goes on."""
    d = _census_dir(tmp_path, [f"order16/{g}.pcg" for g in GROUPS])

    def boom(b):
        raise ArithmeticError("injected centroid failure")

    monkeypatch.setattr(scalars, "centroid", boom)
    out = census.run_census(d).to_json()
    # the flagged groups, whose Cent flags build Cent; c16 builds no ring
    skipped = ["g16_03_c2sq_rtimes_c4", "g16_07_d16"]
    assert out["skipped"] == [f"{g}: refine: injected centroid failure" for g in skipped]
    want = _artifact_groups()
    assert out["groups"] == {g: want[g] for g in GROUPS if g not in skipped}


def test_order_filter_skips_refining_other_orders(tmp_path, monkeypatch):
    mixed = _census_dir(
        tmp_path,
        ["order16/g16_07_d16.pcg", "order81/g81_05_c3_4.pcg", "basic/d8.pcg", "basic/h27.pcg"],
    )
    only16 = tmp_path / "only16"
    only16.mkdir()
    shutil.copy(CORPUS / "order16" / "g16_07_d16.pcg", only16)

    refined = []
    original = refine.refine_to_fixpoint

    def counting(G, group_id=""):
        refined.append(group_id)
        return original(G, group_id=group_id)

    monkeypatch.setattr(refine, "refine_to_fixpoint", counting)
    got = census.run_census(mixed, order_filter=16).to_json()
    assert set(refined) == {"g16_07_d16"}
    calls = len(refined)
    want = census.run_census(only16).to_json()
    assert len(refined) == 2 * calls
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_centralizer_check_raises_without_assert(d8, monkeypatch):
    monkeypatch.setattr(pcgroup, "comm_subgroup", lambda K, H: full_subgroup(d8))
    with pytest.raises(ArithmeticError, match="centralizer"):
        centralizer_mod(d8, full_subgroup(d8), trivial_subgroup(d8))


# -- bad input -----------------------------------------------------------------

NOT_UTF8 = b"p 2\nn 1\n# caf\xe9\n"


def test_non_utf8_file_is_one_skipped_entry(tmp_path):
    d = _census_dir(tmp_path, ["order16/g16_01_c16.pcg"])
    (d / "latin1.pcg").write_bytes(NOT_UTF8)
    out = census.run_census(d).to_json()
    assert out["skipped"] == ["latin1: not UTF-8 text: invalid continuation byte at byte 13"]
    assert out["groups"] == {"g16_01_c16": _artifact_groups()["g16_01_c16"]}


@pytest.mark.parametrize("command", ["verify", "report"])
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, command):
    bad = tmp_path / "latin1.pcg"
    bad.write_bytes(NOT_UTF8)
    assert main([command, str(bad)]) == 2
    assert "parse error: not UTF-8 text" in capsys.readouterr().err


def test_bad_automorphism_generator_is_an_automorphism_error(tmp_path, capsys):
    sidecar = tmp_path / "bad.aut"
    sidecar.write_text("aut: gx -> g1\n")
    assert main(["aut", str(CORPUS / "basic" / "d8.pcg"), "--sidecar", str(sidecar)]) == 1
    assert "automorphism error: line 1: bad generator 'gx'" in capsys.readouterr().err


def test_aut_sidecar_missing_or_not_utf8(tmp_path, capsys):
    d8 = str(CORPUS / "basic" / "d8.pcg")
    assert main(["aut", d8, "--sidecar", str(tmp_path / "missing.aut")]) == 2
    assert "sidecar error:" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.aut"
    latin1.write_bytes(b"# caf\xe9\n")
    assert main(["aut", d8, "--sidecar", str(latin1)]) == 1
    assert "automorphism error: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("missing.aut", None, "sidecar error:"),
        ("latin1.aut", b"# caf\xe9\n", "sidecar error: not UTF-8 text"),
        ("bad.aut", b"aut: gx -> g1\n", "sidecar error: line 1: bad generator 'gx'"),
    ],
)
def test_report_aut_bad_sidecar_is_an_input_error(tmp_path, capsys, name, content, message):
    sidecar = tmp_path / name
    if content is not None:
        sidecar.write_bytes(content)
    argv = ["report", str(CORPUS / "basic" / "d8.pcg"), "--stages", "aut", "--sidecar", str(sidecar)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_load_sidecar_rejects_non_utf8(tmp_path, d8):
    from filterlab.autfilter import load_sidecar

    bad = tmp_path / "latin1.aut"
    bad.write_bytes(b"aut: g1 -> g1\n# caf\xe9\n")
    with pytest.raises(pcgroup.PcgError, match="not UTF-8 text: invalid continuation byte at byte 19"):
        load_sidecar(d8, bad)


# -- huge word exponents ---------------------------------------------------------


def test_relation_exponents_are_cut_mod_the_generator_order():
    """g_k^e keeps |e| mod p^(n-k+1) with its sign, as |G_k| = p^(n-k+1)."""
    G = pcgroup.PcGroup(3, 4, {1: ((4, -1000000001),)}, {(2, 1): ((3, 10), (4, 3000000004))})
    assert G.pow_words == {1: ((4, -2),)}
    assert G.comm_words == {(2, 1): ((3, 1), (4, 1))}
    # 10^12 is 28 mod 3^4 and 1 mod 3
    assert G.collect(((1, 10 ** 12), (4, -(10 ** 12)))) == G.collect(((1, 28), (4, -1)))
    with pytest.raises(pcgroup.PcgError, match="generator index 5 out of range"):
        G.collect(((5, 10 ** 12),))


@pytest.mark.parametrize(
    "command, huge, cut",
    [
        ("verify", "p 2\nn 2\npow 1 = g2^99999999\n", "p 2\nn 2\npow 1 = g2\n"),
        ("aut", "p 3\nn 2\naut: g1 -> g1 g2^77777777\n", "p 3\nn 2\naut: g1 -> g1 g2^2\n"),
        ("aut", "p 3\nn 2\naut: g1 -> g1 g2^-77777777\n", "p 3\nn 2\naut: g1 -> g1 g2^-2\n"),
        (
            "report",
            "p 3\nn 3\npow 1 = g3^-1000000001\ncomm 2 1 = g3^3000000004\n",
            "p 3\nn 3\npow 1 = g3^-2\ncomm 2 1 = g3\n",
        ),
    ],
)
def test_huge_word_exponents_give_the_output_of_the_cut_file(tmp_path, capsys, command, huge, cut):
    """Collection makes fewer than p^(n-k+1) steps for a letter g_k^e, so
    these files finish at once, with the output of the file whose exponents
    are already cut."""
    outputs = []
    for name, text in (("huge", huge), ("cut", cut)):
        path = tmp_path / name / "g.pcg"
        path.parent.mkdir()
        path.write_text(text)
        code = main([command, str(path)])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].out


# -- huge primes -----------------------------------------------------------------


@pytest.mark.parametrize("p", [2**61 - 1, 1000003, 65537])
@pytest.mark.parametrize("command", ["verify", "report", "aut"])
def test_a_prime_past_the_bound_is_a_parse_error(tmp_path, capsys, command, p):
    """p >= 2^16 is refused before the primality test and before any power
    table is built, so the file fails at once instead of hanging."""
    path = tmp_path / "big.pcg"
    path.write_text(f"# a large prime\np {p}\nn 1\n")
    t0 = time.monotonic()
    assert main([command, str(path)]) == 2
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert err == f"parse error: line 2: p = {p} is too large (the bound is p < 65536)\n"


def test_the_prime_bound_holds_in_the_constructor():
    with pytest.raises(pcgroup.PcgError, match="p = 65537 is too large"):
        pcgroup.PcGroup(65537, 1)
    assert pcgroup.parse_pcgroup("p 65521\nn 1\n").order == 65521


# -- census workers ------------------------------------------------------------


def _serial_pool(monkeypatch):
    """Replace multiprocessing.Pool by one that records its requested size
    and maps in this process."""
    sizes = []

    class SerialPool:
        def __init__(self, processes, initializer=None):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(census.multiprocessing, "Pool", SerialPool)
    return sizes


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_census_jobs_below_one_is_an_input_error(tmp_path, capsys, monkeypatch, jobs):
    sizes = _serial_pool(monkeypatch)
    d = _census_dir(tmp_path, ["order16/g16_01_c16.pcg"])
    assert main(["census", str(d), "--jobs", jobs]) == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert sizes == []


def test_census_starts_no_more_workers_than_files(tmp_path, monkeypatch):
    sizes = _serial_pool(monkeypatch)
    d = _census_dir(tmp_path, [f"order16/{g}.pcg" for g in GROUPS[:2]])
    out = census.run_census(d, jobs=8).to_json()
    assert sizes == [2]
    want = _artifact_groups()
    assert out["groups"] == {g: want[g] for g in GROUPS[:2]}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_census_script_jobs_below_one_is_an_input_error(tmp_path, jobs):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_census.py"), "--jobs", jobs, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert f"--jobs must be at least 1, got {jobs}" in proc.stderr
    assert not out.exists()
