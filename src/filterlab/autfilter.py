"""Induced filters on automorphism groups and induced derivations.

An automorphism is stored by its generator images.  For an A-invariant filter
phi, membership of a in Delta_s phi means [phi_t, a] <= phi_{t+s} for every
grade t; checking the grades of phi is exact: the grades of a box past
stabilisation, or the ends of a chain (``delta_grades``).  The
pair law [Delta_s, Delta_t] <= Delta_{s+t} is checked on given generators at
any group order, from x^(ba) against x^(ab), with no map inverted.  Each
member induces a grade-shifting derivation of the graded Lie ring by
x |-> [x, a].
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from . import monoid as mon
from .lie import CosetBasis, GradedLieRing
from .monoid import MonoidElem
from .pcgroup import (
    Elem,
    PcGroup,
    PcgError,
    centralizer_mod,
    full_subgroup,
    kernel_by_layers,
    read_utf8,
    subgroup_from_gens,
    trivial_subgroup,
)
from .series import Filter, exponent_p_step


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
        return self._word_image((k, e) for k, e in enumerate(x, 1) if e)

    def _word_image(self, word) -> Elem:
        G = self.group
        out = G.identity
        for k, e in word:
            out = G.multiply(out, G.power(self.images[k - 1], e))
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
    return a.group.divide(x, a.apply(x))


# -- sidecar parsing -----------------------------------------------------------


def parse_aut_lines(G: PcGroup, lines: Sequence[str]) -> List[AutMap]:
    """``parse_numbered_aut_lines`` on the lines of a sidecar, numbered
    from 1."""
    return parse_numbered_aut_lines(G, enumerate(lines, start=1))


def parse_numbered_aut_lines(G: PcGroup, lines: Iterable[Tuple[int, str]]) -> List[AutMap]:
    """Parse `aut: g<i> -> <word>` lines, each with its file line number,
    into validated automorphisms; errors name the file line.

    Consecutive lines build one automorphism; a blank line, or a repeated
    generator index, starts the next one.  Generators without a line map to
    themselves.  A sidecar's lines and the inline lines of a .pcg file
    (``PcGroup.aut_lines``, blank separators kept) both come here.
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

    for line_no, raw in lines:
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
    return parse_aut_lines(G, read_utf8(path).splitlines())


# -- Delta filter --------------------------------------------------------------


def delta_grades(a: AutMap, f: Filter, grades: Sequence[MonoidElem]) -> List[MonoidElem]:
    """The s in ``grades`` with a in Delta_s phi: [phi_t, a] <= phi_{t+s}
    for all grades t of f.  Raises ``PcgError`` once if a does not leave f
    invariant.

    Generator-level checking suffices because [yx, a] = [y, a]^x [x, a], so
    the [x, a] for x in igs(phi_t) decide every s; each is formed once per
    distinct x, as nested terms share igs members.  Invariance is the case
    s = 0: for x in phi_t, x^a lies in phi_t exactly when [x, a] = x^-1 x^a
    does, and phi_t^a <= phi_t is phi_t^a = phi_t as a is a bijection.
    The grades of a chain are its ends, and they decide every t in N^d:
    phi_t = C_i for the least end u_i >= t, and t + s <= u_i + s in lex, so
    phi_{t+s} >= phi_{u_i+s}.
    """
    pairs = [(t, x) for t in f.grades() for x in f.value(t).igs]
    comm = {x: aut_commutator(x, a) for x in dict.fromkeys(x for _, x in pairs)}

    def member(s: MonoidElem) -> bool:
        return all(f.value(mon.add(t, s)).contains(comm[x]) for t, x in pairs)

    if not member(f.monoid.zero):
        raise PcgError("filter is not invariant under the automorphism")
    return [s for s in grades if member(s)]


def delta_membership(a: AutMap, f: Filter, s: MonoidElem) -> bool:
    """a lies in Delta_s phi (see ``delta_grades``)."""
    return bool(delta_grades(a, f, [s]))


@dataclass
class DeltaReport:
    generator_grades: List[Dict]
    pair_violations: List[str]
    dims_by_grade: Dict[MonoidElem, int]


def pair_law_escapes(
    a: AutMap, b: AutMap, f: Filter, st: MonoidElem
) -> List[Tuple[MonoidElem, Elem]]:
    """The (u, y) with y = x^(ba) for x in igs(phi_u), u a grade of f, and
    [y, [a, b]] = y^-1 x^(ab) outside phi_{st+u}.  For a, b that leave f
    invariant it is empty iff [phi_u, [a, b]] <= phi_{st+u} for every u
    (proof in ``delta_layer_dims``)."""
    G = f.group
    out: List[Tuple[MonoidElem, Elem]] = []
    for u in f.grades():
        target = f.value(mon.add(st, u))
        for x in f.value(u).igs:
            y = a.apply(b.apply(x))
            if not target.contains(G.divide(y, b.apply(a.apply(x)))):
                out.append((u, y))
    return out


def delta_layer_dims(gens: Sequence[AutMap], f: Filter) -> DeltaReport:
    """Classify generators by their maximal Delta grade and check the pair law.

    For generators a, b at maximal grades s, t the law asks phi_u <= S =
    {y in phi_u : [y, c] in T} at every grade u of f, where c = [a, b] =
    a^-1 b^-1 a b and T = phi_{s+t+u}.  ``pair_law_escapes`` decides it
    with no map inverted, and a violation names the y that escapes:

    - ``compose`` applies self first, so (ba) c = ab.  For y = x^(ba),
      y^c = x^(ab) and [y, c] = y^-1 x^(ab).
    - [phi_u, T] <= phi_{s+t+2u} <= T, so phi_u normalises T, and
      [yz, c] = [y, c]^z [z, c] makes S a subgroup.
    - Each generator passed the invariance test of ``delta_grades``, so
      phi_u^(ba) = phi_u is generated by the images y of igs(phi_u).
    """
    gen_rows: List[Dict] = []
    max_grades: List[MonoidElem] = []
    for idx, a in enumerate(gens):
        member = delta_grades(a, f, f.grades())
        maximal = [
            s
            for s in member
            if not any(t != s and f.monoid.preceq(s, t) for t in member)
        ]
        best = max(maximal) if maximal else f.monoid.zero
        max_grades.append(best)
        gen_rows.append({"generator": idx, "max_grade": best, "grades": member})
    pair_violations = [
        f"[x,[a{i},a{j}]] escapes phi at u={u}, x={y}"
        for i, a in enumerate(gens)
        for j, b in enumerate(gens[i + 1 :], start=i + 1)
        for u, y in pair_law_escapes(a, b, f, mon.add(max_grades[i], max_grades[j]))
    ]
    return DeltaReport(gen_rows, pair_violations, dict(Counter(max_grades)))


# -- induced derivations --------------------------------------------------------


def induced_derivation(
    a: AutMap, s: MonoidElem, L: GradedLieRing
) -> Dict[MonoidElem, np.ndarray]:
    """Matrices of D_a : L_u -> L_{u+s}, x |-> class of [x, a]."""
    if s == L.filter.monoid.zero:
        raise ValueError("the induced derivation needs a nonzero grade shift")
    if not delta_membership(a, L.filter, s):
        raise PcgError("automorphism is not in Delta_s of the filter")
    return _derivation_matrices(a, s, L, lambda u, comp: comp.reps)


def _derivation_matrices(a: AutMap, s: MonoidElem, L: GradedLieRing, reps):
    """Per nonzero L_u, the matrix to L_{u+s} of the classes of [x, a] for x
    in ``reps(u, comp)``, which is called only when L_{u+s} is nonzero."""
    out: Dict[MonoidElem, np.ndarray] = {}
    for u, comp in L.comps.items():
        target = L.comps.get(mon.add(u, s))
        mat = np.zeros((comp.dim, L.dim(mon.add(u, s))), dtype=np.int64)
        if target is not None:
            for i, x in enumerate(reps(u, comp)):
                mat[i] = target.coords(aut_commutator(x, a))
        out[u] = mat
    return out


def check_derivation_law(
    L: GradedLieRing, D: Dict[MonoidElem, np.ndarray], s: MonoidElem
) -> List[str]:
    """(x o y) D = xD o y + x o yD on all basis pairs, all grade pairs."""
    p = L.p
    out: List[str] = []

    def dmat(u: MonoidElem) -> np.ndarray:
        m = D.get(u)
        if m is None:
            return np.zeros((L.dim(u), L.dim(mon.add(u, s))), dtype=np.int64)
        if m.shape[1] != L.dim(mon.add(u, s)):
            m = np.zeros((L.dim(u), L.dim(mon.add(u, s))), dtype=np.int64)
        return m

    for u in L.comps:
        for v in L.comps:
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

    def shifted(u, comp):
        bnd = f.boundary_at(u)
        return [f.group.multiply(x, bnd.random_element(rng)) for x in comp.reps]

    return _derivation_matrices(a, s, L, shifted)


# -- central automorphisms -------------------------------------------------------


def central_automorphisms(G: PcGroup) -> List[AutMap]:
    """Validated basis maps x -> x * chi(x), chi : G/(gamma_2 G^p) -> Omega_1(Z).

    Candidate chi send one Frattini-quotient basis class to one generator of
    Omega_1(Z(G)); candidates failing bijectivity are dropped.
    """
    full = full_subgroup(G)
    frat = exponent_p_step(full, full)
    # Omega_1(Z) is the kernel of z |-> z^p, a homomorphism on the abelian
    # Z, so its exponent k is one on the z with z^p in G_k
    center = centralizer_mod(G, full, trivial_subgroup(G))
    omega = kernel_by_layers(G, center.igs, lambda z: [G.power(z, G.p)])
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
