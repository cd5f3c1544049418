"""Induced filters on automorphism groups and induced derivations.

An automorphism is stored by its generator images.  For an A-invariant filter
phi, membership of a in Delta_s phi means [phi_t, a] <= phi_{t+s} for every
grade t; on a box past stabilisation checking box grades is exact.  Each
member induces a grade-shifting derivation of the graded Lie ring by
x |-> [x, a].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import monoid as mon
from .lie import CosetBasis, GradedLieRing
from .monoid import MonoidElem
from .pcgroup import (
    Elem,
    PcGroup,
    PcgError,
    centralizer_mod,
    comm_subgroup,
    full_subgroup,
    subgroup_from_gens,
    trivial_subgroup,
)
from .series import Filter


class AutMap:
    """Automorphism given by pc-generator images (validated on construction)."""

    def __init__(self, group: PcGroup, images: Sequence[Elem], check: bool = True):
        self.group = group
        self.images: Tuple[Elem, ...] = tuple(tuple(x) for x in images)
        if len(self.images) != group.n:
            raise PcgError("need one image per pc generator")
        if check and not self.is_automorphism():
            raise PcgError("generator images do not define an automorphism")

    def apply(self, x: Elem) -> Elem:
        G = self.group
        out = G.identity
        for k in range(1, G.n + 1):
            e = x[k - 1]
            if e:
                for _ in range(e):
                    out = G.multiply(out, self.images[k - 1])
        return out

    def _word_image(self, word) -> Elem:
        G = self.group
        out = G.identity
        for k, e in word:
            img = self.images[k - 1]
            if e >= 0:
                for _ in range(e):
                    out = G.multiply(out, img)
            else:
                for _ in range(-e):
                    out = G.multiply(out, G.inverse(img))
        return out

    def is_automorphism(self) -> bool:
        G = self.group
        # relations preserved (von Dyck) and images generate, hence bijective
        for i in range(1, G.n + 1):
            lhs = G.power(self.images[i - 1], G.p)
            if lhs != self._word_image(G.pow_words.get(i, ())):
                return False
        for j in range(2, G.n + 1):
            for i in range(1, j):
                lhs = G.commutator(self.images[j - 1], self.images[i - 1])
                if lhs != self._word_image(G.comm_words.get((j, i), ())):
                    return False
        return subgroup_from_gens(G, list(self.images)).order == G.order

    def compose(self, other: "AutMap") -> "AutMap":
        """x^(self * other) = (x^self)^other."""
        return AutMap(
            self.group, [other.apply(img) for img in self.images], check=False
        )

    def inverse(self) -> "AutMap":
        G = self.group
        if G.order > 2 ** 14:
            raise PcgError("automorphism inversion needs full enumeration; group too large")
        lookup = {self.apply(x): x for x in G.elements()}
        return AutMap(G, [lookup[g] for g in G.generators()], check=False)

    def commutator_with(self, other: "AutMap") -> "AutMap":
        """[a, b] = a^-1 b^-1 a b as automorphisms."""
        return (
            self.inverse()
            .compose(other.inverse())
            .compose(self)
            .compose(other)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AutMap)
            and self.group is other.group
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.images))


def identity_aut(G: PcGroup) -> AutMap:
    return AutMap(G, G.generators(), check=False)


def inner_automorphism(G: PcGroup, g: Elem) -> AutMap:
    return AutMap(G, [G.conjugate(x, g) for x in G.generators()], check=False)


def aut_commutator(x: Elem, a: AutMap) -> Elem:
    """[x, a] = x^-1 x^a."""
    G = a.group
    return G.multiply(G.inverse(x), a.apply(x))


# -- sidecar parsing -----------------------------------------------------------


def parse_aut_lines(G: PcGroup, lines: Sequence[str]) -> List[AutMap]:
    """Parse `aut: g<i> -> <word>` lines into validated automorphisms.

    Consecutive lines build one automorphism; a blank line, or a repeated
    generator index, starts the next one.  Generators without a line map to
    themselves.
    """
    from .pcgroup import _parse_word

    maps: List[AutMap] = []
    current: Dict[int, Elem] = {}

    def flush():
        if current:
            images = [
                current.get(i, G.generator(i)) for i in range(1, G.n + 1)
            ]
            maps.append(AutMap(G, images, check=True))
            current.clear()

    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        if not line.startswith("aut:"):
            raise PcgError(f"line {line_no}: expected 'aut: g<i> -> <word>'")
        body = line[len("aut:") :].strip()
        if "->" not in body:
            raise PcgError(f"line {line_no}: missing '->'")
        left, right = body.split("->", 1)
        left = left.strip()
        if not left.startswith("g"):
            raise PcgError(f"line {line_no}: left side must be a generator")
        try:
            idx = int(left[1:])
        except ValueError:
            raise PcgError(f"line {line_no}: bad generator {left!r}") from None
        if not (1 <= idx <= G.n):
            raise PcgError(f"line {line_no}: generator index out of range")
        if idx in current:
            flush()
        word = _parse_word(right, line_no)
        current[idx] = G.collect(word)
    flush()
    return maps


def load_sidecar(G: PcGroup, path) -> List[AutMap]:
    from pathlib import Path

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PcgError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_aut_lines(G, text.splitlines())


# -- Delta filter --------------------------------------------------------------


def is_invariant(f: Filter, a: AutMap) -> bool:
    """phi_t^a = phi_t for every box grade t."""
    for t in f.grades():
        H = f.value(t)
        if not all(H.contains(a.apply(h)) for h in H.igs):
            return False
    return True


def delta_membership(a: AutMap, f: Filter, s: MonoidElem) -> bool:
    """a lies in Delta_s phi: [phi_t, a] <= phi_{t+s} for all t.

    Generator-level checking suffices because [yx, a] = [y, a]^x [x, a].
    """
    if not is_invariant(f, a):
        raise PcgError("filter is not invariant under the automorphism")
    for t in f.grades():
        target = f.value(mon.add(t, s))
        for x in f.value(t).igs:
            if not target.contains(aut_commutator(x, a)):
                return False
    return True


@dataclass
class DeltaReport:
    generator_grades: List[Dict]
    pair_violations: List[str]
    dims_by_grade: Dict[MonoidElem, int]


def delta_layer_dims(gens: Sequence[AutMap], f: Filter) -> DeltaReport:
    """Classify generators by their maximal Delta grade and check the pair law."""
    grades = [s for s in f.grades()]
    gen_rows: List[Dict] = []
    max_grades: List[MonoidElem] = []
    for idx, a in enumerate(gens):
        member = [s for s in grades if delta_membership(a, f, s)]
        maximal = [
            s
            for s in member
            if not any(t != s and f.monoid.preceq(s, t) for t in member)
        ]
        best = max(maximal) if maximal else f.monoid.zero
        max_grades.append(best)
        gen_rows.append({"generator": idx, "max_grade": best, "grades": member})
    pair_violations: List[str] = []
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i >= j:
                continue
            s, t = max_grades[i], max_grades[j]
            c = a.commutator_with(b)
            # literal Hall-Witt containment: [x, [a,b]] in phi_{s+t+u}
            st = mon.add(s, t)
            for u in grades:
                target = f.value(mon.add(st, u))
                for x in f.value(u).igs:
                    if not target.contains(aut_commutator(x, c)):
                        pair_violations.append(
                            f"[x,[a{i},a{j}]] escapes phi at u={u}, x={x}"
                        )
    dims: Dict[MonoidElem, int] = {}
    for s in max_grades:
        dims[s] = dims.get(s, 0) + 1
    return DeltaReport(gen_rows, pair_violations, dims)


# -- induced derivations --------------------------------------------------------


def induced_derivation(
    a: AutMap, s: MonoidElem, L: GradedLieRing
) -> Dict[MonoidElem, np.ndarray]:
    """Matrices of D_a : L_u -> L_{u+s}, x |-> class of [x, a]."""
    if s == L.filter.monoid.zero:
        raise ValueError("the induced derivation needs a nonzero grade shift")
    if not delta_membership(a, L.filter, s):
        raise PcgError("automorphism is not in Delta_s of the filter")
    f = L.filter
    out: Dict[MonoidElem, np.ndarray] = {}
    for u, comp in L.comps.items():
        if comp.dim == 0:
            continue
        target = L.comps.get(mon.add(u, s))
        tdim = target.dim if target is not None else 0
        mat = np.zeros((comp.dim, tdim), dtype=np.int64)
        if tdim:
            for i, x in enumerate(comp.reps):
                mat[i] = target.coords(aut_commutator(x, a))
        out[u] = mat
    return out


def check_derivation_law(
    L: GradedLieRing, D: Dict[MonoidElem, np.ndarray], s: MonoidElem
) -> List[str]:
    """(x o y) D = xD o y + x o yD on all basis pairs, all grade pairs."""
    p = L.p
    out: List[str] = []
    grades = [u for u in L.comps if L.dim(u)]

    def dmat(u: MonoidElem) -> np.ndarray:
        m = D.get(u)
        if m is None:
            return np.zeros((L.dim(u), L.dim(mon.add(u, s))), dtype=np.int64)
        if m.shape[1] != L.dim(mon.add(u, s)):
            m = np.zeros((L.dim(u), L.dim(mon.add(u, s))), dtype=np.int64)
        return m

    for u in grades:
        for v in grades:
            uv = mon.add(u, v)
            target = mon.add(uv, s)
            if L.dim(target) == 0:
                continue
            lhs = np.einsum("abc,ck->abk", L.bracket_tensor(u, v), dmat(uv))
            r1 = np.einsum("ak,kbc->abc", dmat(u), L.bracket_tensor(mon.add(u, s), v))
            r2 = np.einsum("bk,akc->abc", dmat(v), L.bracket_tensor(u, mon.add(v, s)))
            if ((lhs - r1 - r2) % p).any():
                out.append(f"derivation law fails at grades ({u},{v})")
    return out


def rerandomized_derivation(
    a: AutMap, s: MonoidElem, L: GradedLieRing, seed: int = 3
) -> Dict[MonoidElem, np.ndarray]:
    """D_a recomputed with representatives shifted by random boundary elements."""
    rng = random.Random(seed)
    f = L.filter
    G = f.group
    out: Dict[MonoidElem, np.ndarray] = {}
    for u, comp in L.comps.items():
        if comp.dim == 0:
            continue
        target = L.comps.get(mon.add(u, s))
        tdim = target.dim if target is not None else 0
        mat = np.zeros((comp.dim, tdim), dtype=np.int64)
        if tdim:
            bnd = f.boundary_at(u)
            for i, x in enumerate(comp.reps):
                x2 = G.multiply(x, bnd.random_element(rng))
                mat[i] = target.coords(aut_commutator(x2, a))
        out[u] = mat
    return out


# -- central automorphisms -------------------------------------------------------


def central_automorphisms(G: PcGroup) -> List[AutMap]:
    """Validated basis maps x -> x * chi(x), chi : G/(gamma_2 G^p) -> Omega_1(Z).

    Candidate chi send one Frattini-quotient basis class to one generator of
    Omega_1(Z(G)); candidates failing bijectivity are dropped.
    """
    full = full_subgroup(G)
    derived = comm_subgroup(full, full)
    frat = subgroup_from_gens(
        G, list(derived.igs) + [G.power(g, G.p) for g in full.igs]
    )
    center = centralizer_mod(G, full, trivial_subgroup(G))
    omega_elems = [z for z in center.elements() if G.power(z, G.p) == G.identity]
    omega = subgroup_from_gens(G, omega_elems)
    if omega.order == 1 or frat.order == G.order:
        return []
    basis = CosetBasis(full, frat)
    out: List[AutMap] = []
    for i in range(basis.dim):
        for w in omega.igs:
            images = []
            for k in range(1, G.n + 1):
                g = G.generator(k)
                c = int(basis.coords(g)[i])
                images.append(G.multiply(g, G.power(w, c)))
            try:
                out.append(AutMap(G, images, check=True))
            except PcgError:
                continue
    return out
