"""A census run shares each distinct bimap's rings across its groups.

``scalars.rings_for`` keys a ring scope by (p, tensor shape, tensor bytes);
``census.run_census`` opens a fresh scope per run, and each pool worker its
own.  Sharing must be exact: the census bytes are those of a run that builds
every bimap's rings anew, serial or parallel, and a shared instance reads
as a fresh build of its bimap after every group of the run has used it."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from filterlab import census, scalars

ROOT = Path(__file__).resolve().parent.parent
ORDERS = (16, 81)

# (``rings_for`` lookups, ``BimapRings`` builds) of one census run per order:
# the builds are the distinct bimaps of the run
TRAFFIC = {16: (45, 13), 81: (52, 16)}

# ``AssocAlgebra._radical`` runs of one census run per order, one per distinct
# ring or Der envelope whose radical the run asks for
RADICALS = {16: 19, 81: 26}


def _dir(order):
    return ROOT / "corpus" / f"order{order}"


def _artifact(order):
    return (ROOT / "artifacts" / f"census_order{order}.json").read_text()


def _bytes(summary):
    """The bytes ``scripts/run_census.py`` writes."""
    return json.dumps(summary.to_json(), sort_keys=True, indent=2) + "\n"


def _key(b):
    return (b.p, b.tensor.shape, b.tensor.tobytes())


@pytest.fixture
def traffic(monkeypatch):
    """Counts ``rings_for`` lookups and ``BimapRings`` builds; after each
    lookup checks that the instance is one of the asked bimap and records
    the scope's size."""
    seen = {"lookups": 0, "builds": 0, "keys": set(), "sizes": [], "scopes": []}
    rings_for, init = scalars.rings_for, scalars.BimapRings.__init__

    def counting_rings_for(b):
        seen["lookups"] += 1
        rings = rings_for(b)
        assert rings.b.p == b.p and rings.b.tensor.shape == b.tensor.shape
        assert np.array_equal(rings.b.tensor, b.tensor)
        seen["keys"].add(_key(b))
        seen["sizes"].append(len(scalars._shared))
        if not any(s is scalars._shared for s in seen["scopes"]):
            seen["scopes"].append(scalars._shared)
        return rings

    def counting_init(self, b):
        seen["builds"] += 1
        init(self, b)

    monkeypatch.setattr(scalars, "rings_for", counting_rings_for)
    monkeypatch.setattr(scalars.BimapRings, "__init__", counting_init)
    return seen


@pytest.mark.parametrize("order", ORDERS)
def test_a_run_builds_each_distinct_bimap_once(traffic, order):
    assert _bytes(census.run_census(_dir(order))) == _artifact(order)
    assert (traffic["lookups"], traffic["builds"]) == TRAFFIC[order]
    assert traffic["builds"] == len(traffic["keys"])
    assert len(traffic["scopes"]) == 1 and scalars._shared is None


def _certifications(monkeypatch):
    """A list that gets each algebra that runs ``AssocAlgebra._radical``,
    kept alive so that distinct algebras have distinct ids."""
    certified = []
    radical = scalars.AssocAlgebra._radical

    def counting(self):
        certified.append(self)
        return radical(self)

    monkeypatch.setattr(scalars.AssocAlgebra, "_radical", counting)
    return certified


@pytest.mark.parametrize("order", ORDERS)
def test_a_run_certifies_each_radical_once(monkeypatch, order):
    certified = _certifications(monkeypatch)
    assert _bytes(census.run_census(_dir(order))) == _artifact(order)
    assert len(certified) == len({id(a) for a in certified}) == RADICALS[order]


def test_a_failed_certification_is_not_kept(monkeypatch):
    """A radical certification that raises keeps nothing: a second
    ``radical`` on the shared ring runs ``_radical`` again and raises again,
    as a failed ``BimapRings`` build does, so a census run that shares
    rings skips the groups that one sharing nothing skips."""
    certified = _certifications(monkeypatch)
    check = scalars.AssocAlgebra._check_two_sided

    def injected(self, rad):
        raise ArithmeticError("injected")

    def on_envelopes(self, rad):  # Der's envelopes of 2-dimensional sides
        if type(self) is scalars.AssocAlgebra and self.n == 2:
            injected(self, rad)
        check(self, rad)

    b = scalars.Bimap(3, [[[1]]])
    with scalars.ring_scope():
        with monkeypatch.context() as m:
            m.setattr(scalars.AssocAlgebra, "_check_two_sided", injected)
            for _ in range(2):
                with pytest.raises(ArithmeticError, match="injected"):
                    scalars.rings_for(b).ring("Mid").radical()
        mid = scalars.rings_for(b).ring("Mid")
        assert len(certified) == 2 and certified[0] is certified[1] is mid
        assert mid.radical() is mid.radical() and len(certified) == 3
    monkeypatch.setattr(scalars.AssocAlgebra, "_check_two_sided", on_envelopes)
    certified.clear()
    shared = census.run_census(_dir(16))
    assert len(certified) > len({id(a) for a in certified}) > 0
    monkeypatch.setattr(scalars, "rings_for", scalars.BimapRings)
    unshared = census.run_census(_dir(16))
    assert shared.skipped and all(": refine: injected" in s for s in shared.skipped)
    assert shared.groups and _bytes(shared) == _bytes(unshared)


def test_runs_share_nothing(traffic):
    for _ in range(2):
        census.run_census(_dir(16))
        assert scalars._shared is None
    assert traffic["builds"] == 2 * TRAFFIC[16][1]
    assert len(traffic["scopes"]) == 2


def test_census_bytes_serial_parallel_and_unshared(monkeypatch):
    serial = _bytes(census.run_census(_dir(16), jobs=1))
    parallel = _bytes(census.run_census(_dir(16), jobs=2))
    monkeypatch.setattr(scalars, "rings_for", scalars.BimapRings)
    unshared = _bytes(census.run_census(_dir(16), jobs=1))
    assert serial == parallel == unshared == _artifact(16)


def test_workers_open_their_own_scope(monkeypatch):
    opened = []
    monkeypatch.setattr(census.multiprocessing, "Pool", lambda n, initializer: opened.append(initializer) or _Serial())
    assert _bytes(census.run_census(_dir(16), jobs=2)) == _artifact(16)
    assert opened == [scalars.open_ring_scope]


class _Serial:
    """A pool stand-in that maps in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, f, xs):
        return [f(x) for x in xs]


def test_a_run_of_both_orders_keys_by_p(traffic, tmp_path):
    """Both orders meet the 1x1x1 tensor [[[1]]], over GF(2) and GF(3); the
    run shares rings only between bimaps with the same p and tensor."""
    for order in ORDERS:
        for path in _dir(order).glob("*.pcg"):
            shutil.copy(path, tmp_path / path.name)
    got = census.run_census(tmp_path).to_json()
    one = np.ones((1, 1, 1), dtype=np.int64)
    assert {(p, (1, 1, 1), one.tobytes()) for p in (2, 3)} <= traffic["keys"]
    assert traffic["builds"] == len(traffic["keys"]) == sum(b for _, b in TRAFFIC.values())
    want = [json.loads(_artifact(order)) for order in ORDERS]
    assert got["groups"] == {**want[0]["groups"], **want[1]["groups"]}
    assert got["orders"] == {**want[0]["orders"], **want[1]["orders"]}
    assert got["skipped"] == []


def _emission(e):
    return (e.side, e.basis.tolist(), e.pivots.tolist(), list(e.provenances))


def _reading(rings):
    """What a consumer can read off ``rings``, each part that raises as its
    error."""

    def attempt(f):
        try:
            return f()
        except (ArithmeticError, ValueError) as exc:
            return (type(exc).__name__, str(exc))

    out = {k: attempt(lambda k=k: rings.ring(k).dim) for k in scalars.KINDS}
    out["der_envelopes_full"] = rings.der_envelopes_full()
    for r in scalars.RANKS:
        out[r] = attempt(lambda r=r: [_emission(e) for e in rings.emissions(r)])
    out["subspaces"] = attempt(lambda: [_emission(e) for e in rings.subspaces(scalars.RANKS)])
    return out


def test_shared_rings_read_as_fresh_builds(traffic):
    """After a run over both orders, every entry of its scopes reads as a
    fresh build of its bimap, and reads so again after that reading merged
    its emissions: no consumer changed shared state."""
    for order in ORDERS:
        census.run_census(_dir(order))
    entries = [(key, rings) for scope in traffic["scopes"] for key, rings in scope.items()]
    assert len(entries) == sum(b for _, b in TRAFFIC.values())
    for key, rings in entries:
        assert key == _key(rings.b)
        fresh = scalars.BimapRings(scalars.Bimap(rings.b.p, rings.b.tensor.copy()))
        reading = _reading(rings)
        assert reading == _reading(fresh) == _reading(rings)


def test_a_bounded_scope_stays_exact(traffic, monkeypatch):
    monkeypatch.setattr(scalars, "SHARED_RINGS_BOUND", 2)
    for order in ORDERS:
        assert _bytes(census.run_census(_dir(order))) == _artifact(order)
    assert max(traffic["sizes"]) == 2
    # the bound drops rings that a later group asks for again
    assert traffic["builds"] > sum(b for _, b in TRAFFIC.values())


def test_a_failed_build_is_not_kept(monkeypatch):
    """A bimap whose rings raise raises again at every lookup, so each group
    that meets it is skipped as in a run that shares nothing."""
    derivation_algebra = scalars.derivation_algebra
    failures = []

    def failing(b):
        if b.dims == (1, 1, 1):
            failures.append(_key(b))
            raise ArithmeticError("injected")
        return derivation_algebra(b)

    monkeypatch.setattr(scalars, "derivation_algebra", failing)
    shared = census.run_census(_dir(16))
    assert len(failures) > len(set(failures)) > 0
    with scalars.ring_scope():
        with pytest.raises(ArithmeticError, match="injected"):
            scalars.rings_for(scalars.Bimap(2, [[[1]]]))
        assert scalars._shared == {}
    monkeypatch.setattr(scalars, "rings_for", scalars.BimapRings)
    unshared = census.run_census(_dir(16))
    assert shared.skipped and all(": refine: injected" in s for s in shared.skipped)
    assert _bytes(shared) == _bytes(unshared)


def test_rings_outside_a_scope_are_fresh():
    b = scalars.Bimap(3, [[[1]]])
    assert scalars._shared is None
    assert scalars.rings_for(b) is not scalars.rings_for(b)
    with scalars.ring_scope():
        assert scalars.rings_for(b) is scalars.rings_for(scalars.Bimap(3, [[[4]]]))
        assert scalars.rings_for(b) is not scalars.rings_for(scalars.Bimap(2, [[[1]]]))
    assert scalars._shared is None
