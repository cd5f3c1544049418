"""Finite p-group arithmetic via consistent polycyclic presentations.

A group of order p^n is presented on generators g1..gn with power relations
g_i^p = w_i and commutator relations [g_j, g_i] = w_ji (j > i), where every
relation word uses only generators of index strictly greater than the
left-hand side's largest index.  The chain G_k = <g_k, ..., g_n> is then a
central series and collection from the left terminates structurally.

Elements are exponent vectors (tuples of length n, entries in [0, p)).
Subgroups carry a canonical induced generating sequence (igs): echelonised by
leading depth, leading exponent 1, and zero entries at the depths of deeper
igs members.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg

Word = Tuple[Tuple[int, int], ...]  # ((generator index 1-based, exponent), ...)
Elem = Tuple[int, ...]


class PcgError(ValueError):
    """Malformed or inconsistent pc presentation."""


class PcgSyntaxError(PcgError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


P_LIMIT = 2 ** 16


def _prime_error(p: int) -> Optional[str]:
    """Why p cannot be the prime of a presentation, or None.  The bound comes
    first: each generator holds p - 2 power tables and trial division makes
    sqrt(p) steps, so a huge p would hang before any check could fail."""
    if p >= P_LIMIT:
        return f"p = {p} is too large (the bound is p < {P_LIMIT})"
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        return f"p = {p} is not prime"
    return None


class PcGroup:
    """Immutable pc presentation with collection-based arithmetic.

    Products are collected from the left one letter g_k^e at a time through
    power tables, ``_powers[k][e][x] = x * g_k^e`` for 1 <= e < p, filled on
    demand.  The e = 1 table is ``_mult_cache[k]``, filled by collection;
    an e >= 2 entry is filled on a miss as e single steps of it.  Tables are
    keyed by normal forms, so each holds at most |G| entries and all of them
    together at most n(p - 1)|G|.  The public entries check argument lengths
    once per call; ``power(x, e)`` starts from x and makes e - 1 multiplies.
    """

    def __init__(
        self,
        p: int,
        n: int,
        pow_words: Optional[Dict[int, Word]] = None,
        comm_words: Optional[Dict[Tuple[int, int], Word]] = None,
        check: bool = True,
        name: str = "",
        aut_lines: Sequence[Tuple[int, str]] = (),
    ):
        bad = _prime_error(p)
        if bad:
            raise PcgError(bad)
        if n < 0:
            raise PcgError("generator count must be non-negative")
        self.p = p
        self.n = n
        self.name = name
        # (file line, text) of the inline `aut:` lines and their blank
        # separators, read by autfilter.parse_numbered_aut_lines
        self.aut_lines: List[Tuple[int, str]] = list(aut_lines)
        self.pow_words: Dict[int, Word] = {}
        self.comm_words: Dict[Tuple[int, int], Word] = {}
        for i, w in (pow_words or {}).items():
            w = self._relation_word(w, i, f"pow {i}")
            if w:
                self.pow_words[i] = w
        for (j, i), w in (comm_words or {}).items():
            if not (1 <= i < j <= n):
                raise PcgError(f"comm {j} {i}: need n >= j > i >= 1")
            w = self._relation_word(w, j, f"comm {j} {i}")
            if w:
                self.comm_words[(j, i)] = w
        self.identity: Elem = (0,) * n
        self.factors: List[Tuple[int, "PcGroup"]] = []  # (offset, factor) when built as a direct product
        self._mult_cache: List[Dict[Elem, Elem]] = [{} for _ in range(n + 1)]
        self._powers: List[list] = [
            [None, t] + [{} for _ in range(p - 2)] for t in self._mult_cache
        ]
        if check and n > 0:
            bad = self.consistency_violations()
            if bad:
                raise PcgError("inconsistent presentation: " + bad[0])

    def _relation_word(self, w: Iterable[Tuple[int, int]], above: int, what: str) -> Word:
        """w with its exponents cut by ``_cut``, once it is checked to use
        only generators of index in (above, n]."""
        w = tuple(w)
        for k, _ in w:
            if not (1 <= k <= self.n):
                raise PcgError(f"{what}: generator index {k} out of range")
            if k <= above:
                raise PcgError(
                    f"{what}: relation word may only use generators of index > {above}"
                )
        return tuple((k, self._cut(k, e)) for k, e in w)

    def _cut(self, k: int, e: int) -> int:
        """The exponent e of a letter g_k^e cut to |e| mod p^(n-k+1), its
        sign kept.  g_k lies in G_k, of order p^(n-k+1), so the letter keeps
        its value, and ``mult_word`` makes fewer than |G_k| steps for it."""
        m = self.p ** (self.n - k + 1)
        return e % m if e >= 0 else -(-e % m)

    @property
    def order(self) -> int:
        return self.p ** self.n

    # -- collection ------------------------------------------------------
    #
    # Collection from the left (Holt, Eick and O'Brien, Handbook of
    # Computational Group Theory, 2005, ch. 8).  Row 0 of ``_mult_cache``
    # and of ``_powers`` is unused.  ``_mul``, ``_div`` and the positive
    # letters of ``mult_word`` read the (k, e) table inline and call
    # ``_fill`` only on a miss.  The public entries check argument lengths
    # once and run on these unchecked cores.

    def _mult_gen(self, x: Elem, k: int) -> Elem:
        """Normal form of x * g_k, stored in the table of g_k."""
        table = self._mult_cache[k]
        hit = table.get(x)
        if hit is not None:
            return hit
        p = self.p
        if not any(x[k:]):
            e = x[k - 1] + 1
            if e < p:
                res = x[: k - 1] + (e,) + x[k:]
            else:
                base = x[: k - 1] + (0,) + x[k:]
                res = self.mult_word(base, self.pow_words.get(k, ()))
        else:
            head = x[:k] + (0,) * (self.n - k)
            acc = self._mult_gen(head, k)
            for m in range(k + 1, self.n + 1):
                e = x[m - 1]
                if e == 0:
                    continue
                comm = self.comm_words.get((m, k), ())
                for _ in range(e):
                    acc = self._mult_gen(acc, m)
                    if comm:
                        acc = self.mult_word(acc, comm)
            res = acc
        table[x] = res
        return res

    def _fill(self, x: Elem, k: int, e: int) -> Elem:
        """x * g_k^e for e > 0 after a miss in its table.  For e = 1 that
        is ``_mult_gen``; for e >= 2 it is e single steps through the table
        of g_k, stored in the (k, e) table when e < p.  So every entry
        equals its e single steps, on inconsistent presentations too, and
        an e >= p (no normal form) is only walked."""
        if e == 1:
            return self._mult_gen(x, k)
        table = self._mult_cache[k]
        z = x
        for _ in range(e):
            w = table.get(z)
            z = w if w is not None else self._mult_gen(z, k)
        if e < self.p:
            self._powers[k][e][x] = z
        return z

    def mult_word(self, x: Elem, w: Iterable[Tuple[int, int]]) -> Elem:
        """Normal form of x times a word (letters with any integer exponents)."""
        powers, p = self._powers, self.p
        for k, e in w:
            if e > 0:
                z = powers[k][e].get(x) if e < p else None
                x = z if z is not None else self._fill(x, k, e)
            elif e < 0:
                # the solve for g_k^-1 only meets relation words of
                # generators after k, so this recursion terminates
                gi = self._div(self.generator(k), self.identity)
                for _ in range(-e):
                    x = self._mul(x, gi)
        return x

    def collect(self, word: Iterable[Tuple[int, int]]) -> Elem:
        """Unique normal form of an arbitrary word in the generators."""
        x = self.identity
        for k, e in word:
            if not (1 <= k <= self.n):
                raise PcgError(f"generator index {k} out of range")
            x = self.mult_word(x, ((k, self._cut(k, e)),))
        return x

    def _mul(self, x: Elem, y: Elem) -> Elem:
        """x * g1^y1 ... gn^yn, one table read per letter with 0 < y_k < p;
        no length check.  An entry y_k < 0 takes no step."""
        powers, p = self._powers, self.p
        for k, e in enumerate(y, 1):
            if e > 0:
                z = powers[k][e].get(x) if e < p else None
                x = z if z is not None else self._fill(x, k, e)
        return x

    def _div(self, a: Elem, b: Elem) -> Elem:
        """a^-1 b, found as the y with a * g1^y1 ... gn^yn = b; no length check.

        Relation words use only generators after their left-hand side, so
        right multiplication by g_k^e adds e mod p to exponent k and changes
        no earlier exponent.  Once a * g1^y1 ... g(k-1)^y(k-1) agrees with b
        before depth k, y_k = b_k - (its exponent k) mod p makes it agree up
        to depth k, and later steps keep that; after depth n it equals b.
        """
        powers, p = self._powers, self.p
        y = []
        for k, bk in enumerate(b, 1):
            e = (bk - a[k - 1]) % p
            y.append(e)
            if e:
                z = powers[k][e].get(a)
                a = z if z is not None else self._fill(a, k, e)
        return tuple(y)

    def _pow(self, x: Elem, e: int) -> Elem:
        """x^e for e >= 0, as x times e - 1 further factors x; no length check.

        Starting from x rather than the identity is exact: collecting
        identity * x walks g1^x1 ... gn^xn, and when g_k is multiplied on,
        every exponent after k is still 0, so ``_mult_gen`` takes its no-tail
        branch with the new exponent at most x_k < p and only writes it in.
        So identity * x = x for a normal form x.
        """
        if e == 0:
            return self.identity
        acc = x
        for _ in range(e - 1):
            acc = self._mul(acc, x)
        return acc

    def multiply(self, x: Elem, y: Elem) -> Elem:
        """Normal form of x * y."""
        if len(x) != self.n or len(y) != self.n:
            self._check_elems(x, y)
        return self._mul(x, y)

    def divide(self, a: Elem, b: Elem) -> Elem:
        """a^-1 b."""
        if len(a) != self.n or len(b) != self.n:
            self._check_elems(a, b)
        return self._div(a, b)

    def inverse(self, x: Elem) -> Elem:
        if len(x) != self.n:
            self._check_elems(x)
        return self._div(x, self.identity)

    def power(self, x: Elem, e: int) -> Elem:
        """x^e for any integer e."""
        if len(x) != self.n:
            self._check_elems(x)
        if e < 0:
            x, e = self._div(x, self.identity), -e
        return self._pow(x, e)

    def commutator(self, x: Elem, y: Elem) -> Elem:
        """[x, y] = x^-1 y^-1 x y = (yx)^-1 (xy)."""
        if len(x) != self.n or len(y) != self.n:
            self._check_elems(x, y)
        return self._div(self._mul(y, x), self._mul(x, y))

    def conjugate(self, x: Elem, g: Elem) -> Elem:
        """x^g = g^-1 x g."""
        if len(x) != self.n or len(g) != self.n:
            self._check_elems(x, g)
        return self._div(g, self._mul(x, g))

    def generator(self, k: int) -> Elem:
        if not (1 <= k <= self.n):
            raise PcgError(f"generator index {k} out of range")
        return tuple(1 if m == k else 0 for m in range(1, self.n + 1))

    def generators(self) -> List[Elem]:
        return [self.generator(k) for k in range(1, self.n + 1)]

    def elements(self) -> Iterable[Elem]:
        """All p^n exponent vectors in lexicographic order."""
        import itertools

        for v in itertools.product(range(self.p), repeat=self.n):
            yield v

    def _check_elems(self, *xs: Elem) -> None:
        for x in xs:
            if len(x) != self.n:
                raise PcgError(f"element length {len(x)} does not match n = {self.n}")

    # -- consistency -----------------------------------------------------

    def consistency_violations(self, limit: int = 1) -> List[str]:
        """Overlap conditions of the rewriting system; empty list means consistent."""
        out: List[str] = []
        mul = self._mul
        gens = self.generators()
        # g^(p-1) and g^p of each generator and g_j g_i for j > i, formed
        # once for every check
        below = [self._pow(g, self.p - 1) for g in gens]
        pth = [self._pow(g, self.p) for g in gens]
        prod = {
            (j, i): mul(gens[j - 1], gens[i - 1])
            for j in range(2, self.n + 1)
            for i in range(1, j)
        }

        def record(msg: str) -> bool:
            out.append(msg)
            return len(out) >= limit

        for i in range(1, self.n + 1):
            gi, gp = gens[i - 1], pth[i - 1]
            if mul(gi, gp) != mul(gp, gi):
                if record(f"g{i} * g{i}^p != g{i}^p * g{i}"):
                    return out
        for j in range(2, self.n + 1):
            for i in range(1, j):
                gi, gj, gjgi = gens[i - 1], gens[j - 1], prod[j, i]
                if mul(pth[j - 1], gi) != mul(below[j - 1], gjgi):
                    if record(f"overlap g{j}^p . g{i}"):
                        return out
                if mul(gj, pth[i - 1]) != mul(gjgi, below[i - 1]):
                    if record(f"overlap g{j} . g{i}^p"):
                        return out
        for k in range(3, self.n + 1):
            for j in range(2, k):
                for i in range(1, j):
                    a = mul(gens[k - 1], prod[j, i])
                    b = mul(prod[k, j], gens[i - 1])
                    if a != b:
                        if record(f"overlap g{k} g{j} g{i}"):
                            return out
        return out

    def __repr__(self) -> str:
        tag = self.name or f"p{self.p}n{self.n}"
        return f"PcGroup({tag}, order={self.order})"


# -- subgroups -------------------------------------------------------------


def depth(x: Elem) -> int:
    """1-based index of the first nonzero exponent; 0 for the identity."""
    for i, e in enumerate(x):
        if e:
            return i + 1
    return 0


class Subgroup:
    """Subgroup given by a canonical induced generating sequence."""

    def __init__(self, group: PcGroup, igs: Sequence[Elem]):
        self.group = group
        self.igs: Tuple[Elem, ...] = tuple(igs)
        self._by_depth: Dict[int, Elem] = {depth(h): h for h in self.igs}

    @property
    def order(self) -> int:
        return self.group.p ** len(self.igs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.igs == other.igs
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.igs))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order})"

    def contains(self, x: Elem) -> bool:
        return sift(self.group, self._by_depth, x) == self.group.identity

    def is_subset(self, other: "Subgroup") -> bool:
        self._check_parent(other)
        return all(other.contains(h) for h in self.igs)

    def join(self, other: "Subgroup") -> "Subgroup":
        self._check_parent(other)
        return subgroup_from_gens(self.group, list(self.igs) + list(other.igs))

    def meet(self, other: "Subgroup") -> "Subgroup":
        """H = self meet N = other: the kernel on H of x |-> (sift residue r
        of x through igs(N)), by ``kernel_by_layers``.  On K_{k-1} =
        H meet N G_k the residue lemma of ``sift`` makes exponent k of r the
        class of x in N G_k / N G_{k+1}: a homomorphism with kernel
        H meet N G_{k+1}.  So K_n = H meet N, and neither need be normal.
        """
        self._check_parent(other)
        G = self.group
        return kernel_by_layers(G, self.igs, lambda x: [sift(G, other._by_depth, x)])

    def elements(self) -> List[Elem]:
        """All elements, as products of igs powers in normal order."""
        G = self.group
        out = [G.identity]
        for h in reversed(self.igs):
            powers = [G.identity]
            for _ in range(G.p - 1):
                powers.append(G._mul(powers[-1], h))
            out = [G._mul(pw, x) for pw in powers for x in out]
        return out

    def random_element(self, rng) -> Elem:
        G = self.group
        x = G.identity
        for h in self.igs:
            e = rng.randrange(G.p)
            if e:
                x = G._mul(x, G._pow(h, e))
        return x

    def is_normal(self) -> bool:
        G = self.group
        return all(
            self.contains(G.conjugate(h, g))
            for h in self.igs
            for g in G.generators()
        )

    def _check_parent(self, other: "Subgroup") -> None:
        if self.group is not other.group:
            raise PcgError("subgroups have different parent groups")


def sift(
    G: PcGroup,
    by_depth: Dict[int, Elem],
    x: Elem,
    steps: Optional[List[Tuple[int, int]]] = None,
) -> Elem:
    """Reduce x against echelonised elements keyed by depth; identity iff x
    is in their span.  Each step x <- h^-k x clears the leading exponent of x
    against h = by_depth[d]; (d, k) is appended to ``steps`` when given.

    Residue lemma: for ``by_depth`` the igs of a subgroup N and x in N G_k,
    the residue r = m x (m in N) lies in G_k, and exponent k of r is the
    class of x in N G_k / N G_{k+1}, a group of order 1 or p as G_k/G_{k+1}
    is central in G/G_{k+1}.  Were j = depth(r) < k, r = m' g with m' in N
    and g in G_k, so m' = r g^-1 would be a member of N of depth j, where
    the sift stopped.  If N has a member of depth k, G_k <= N G_{k+1} and
    exponent k of r is 0, as the sift does not stop at k.  If not, G_k
    meets N G_{k+1} in G_{k+1} by the same depth argument, so exponent k
    reads off N G_k / N G_{k+1}, where r has the class of x = m^-1 r.
    """
    if len(x) != G.n:
        G._check_elems(x)
    while x != G.identity:
        d = depth(x)
        h = by_depth.get(d)
        if h is None:
            return x
        k = (x[d - 1] * pow(h[d - 1], G.p - 2, G.p)) % G.p
        x = G._div(G._pow(h, k), x)
        if steps is not None:
            steps.append((d, k))
    return x


def _canonicalize_igs(G: PcGroup, by_depth: Dict[int, Elem]) -> Tuple[Elem, ...]:
    # Normalise leading exponents to 1, then clear deeper pivot coordinates
    # top-down; within G_d the pivot coordinate of a product is additive, so
    # the result is the unique fully reduced igs of the subgroup.
    canon: Dict[int, Elem] = {}
    for d in sorted(by_depth):
        h = by_depth[d]
        h = G._pow(h, pow(h[d - 1], G.p - 2, G.p))
        canon[d] = h
    for d in sorted(canon, reverse=True):
        for d2 in sorted(x for x in canon if x > d):
            h = canon[d]
            c = h[d2 - 1]
            if c:
                canon[d] = G._mul(h, G._pow(G._div(canon[d2], G.identity), c))
    return tuple(canon[d] for d in sorted(canon))


def subgroup_from_gens(G: PcGroup, gens: Iterable[Elem]) -> Subgroup:
    """Closure of <gens> into an echelonised igs (noncommutative elimination)."""
    by_depth: Dict[int, Elem] = {}
    queue: List[Elem] = [tuple(x) for x in gens]
    while queue:
        x = queue.pop()
        x = sift(G, by_depth, x)
        if x == G.identity:
            continue
        d = depth(x)
        by_depth[d] = x
        # re-close: powers and commutators must sift through the new basis.
        # One commutator per pair is enough: [x, h] lies deeper than both x
        # and h, so sifting it uses only deeper members; by induction from
        # the deepest member their span is a subgroup, which then also holds
        # [h, x] = [x, h]^-1.
        queue.append(G._pow(x, G.p))
        for h in list(by_depth.values()):
            if h != x:
                queue.append(G.commutator(x, h))
    return Subgroup(G, _canonicalize_igs(G, by_depth))


def trivial_subgroup(G: PcGroup) -> Subgroup:
    return Subgroup(G, ())


def full_subgroup(G: PcGroup) -> Subgroup:
    return subgroup_from_gens(G, G.generators())


def comm_subgroup(H: Subgroup, K: Subgroup) -> Subgroup:
    """[H, K]: generated by igs commutators, closed under conjugation by <H, K>."""
    H._check_parent(K)
    G = H.group
    gens = [G.commutator(h, k) for h in H.igs for k in K.igs]
    S = subgroup_from_gens(G, gens)
    parent_gens = list(H.igs) + list(K.igs)
    changed = True
    while changed:
        changed = False
        for s in S.igs:
            for g in parent_gens:
                c = G.conjugate(s, g)
                if not S.contains(c):
                    S = subgroup_from_gens(G, list(S.igs) + [c])
                    changed = True
    return S


class SubgroupOps:
    """[A, B], A v B and A <= B for subgroups of G, each computed once per
    pair of igs.  The symmetric two are stored for both argument orders.

    An instance lives for one refinement or one axiom check, so it holds at
    most k^2 entries per operation for the k distinct subgroups that call
    meets.
    """

    def __init__(self, G: PcGroup):
        self.group = G
        self._comm: Dict[Tuple, Subgroup] = {}
        self._join: Dict[Tuple, Subgroup] = {}
        self._subset: Dict[Tuple, bool] = {}

    def _memo(self, memo: Dict, A: Subgroup, B: Subgroup, op, symmetric: bool):
        if A.group is not self.group or B.group is not self.group:
            raise PcgError("subgroups have different parent groups")
        key = (A.igs, B.igs)
        got = memo.get(key)
        if got is None:
            got = memo[key] = op(A, B)
            if symmetric:
                memo[(B.igs, A.igs)] = got
        return got

    def comm(self, A: Subgroup, B: Subgroup) -> Subgroup:
        return self._memo(self._comm, A, B, comm_subgroup, True)

    def join(self, A: Subgroup, B: Subgroup) -> Subgroup:
        return self._memo(self._join, A, B, Subgroup.join, True)

    def is_subset(self, A: Subgroup, B: Subgroup) -> bool:
        return self._memo(self._subset, A, B, Subgroup.is_subset, False)


def kernel_by_layers(
    G: PcGroup, igs: Sequence[Elem], images: Callable[[Elem], Sequence[Elem]]
) -> Subgroup:
    """The x of the subgroup D with induced generating sequence ``igs`` whose
    ``images(x)`` are all the identity, found down the series G_k, one layer
    G_k/G_{k+1} of order p at a time with GF(p) linear algebra (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 2005, ch. 8).

    ``igs`` must give every element of D once as c_1^a_1 ... c_r^a_r, the
    c_i at distinct depths in increasing order.  With K_0 = D and K_k the x
    in D whose images all lie in G_{k+1}, the caller guarantees that, on
    K_{k-1}, x |-> (exponent k of each image of x) is a homomorphism f_k
    into GF(p)^m.  Exponent k is additive on G_k modulo G_{k+1}, so it is
    the isomorphism G_k/G_{k+1} -> GF(p).

    - K_k is the kernel of f_k, and K_n is the result.
    - With c an igs of K_{k-1}, f_k(c^a) = sum a_i f_k(c_i), so K_k is
      exactly {c^a : A a = 0}, column i of A being f_k(c_i), and a |-> c^a
      is a bijection from that nullspace onto K_k.
    - Each row b of the RREF nullspace basis is 0 before its pivot i and
      1 at it, so c^b has the depth of c_i: the s = dim rows give members
      of K_k, of order p^s, at distinct depths.
    - s members y_1, ..., y_s of distinct increasing depths in a subgroup
      of order p^s are an igs of it: in y_1^e_1 ... y_s^e_s the exponent
      at depth(y_1) is e_1 times that of y_1, as the rest lies deeper, so
      e_1 is read off; cancelling y_1^e_1 gives the others in turn.  So
      the p^s products are distinct, and they are the whole subgroup.

    No closure is needed until the final canonical igs.  When the f_j
    before layer k are homomorphisms, the images of the basis at layer k
    lie in G_k; one above depth k raises ``ArithmeticError``.
    """
    basis = list(igs)
    imgs = [images(c) for c in basis]
    for k in range(1, G.n + 1):
        if any(0 < depth(w) < k for ws in imgs for w in ws):
            raise ArithmeticError(f"layer {k}: an image lies above G_{k}")
        columns = [[w[k - 1] for w in ws] for ws in imgs]
        if not any(map(any, columns)):
            continue
        kernel = []
        for b in linalg.nullspace(list(zip(*columns)), G.p).tolist():
            y = G.identity
            for c, e in zip(basis, b):
                if e:
                    y = G._mul(y, G._pow(c, e))
            kernel.append(y)
        basis = kernel
        imgs = [images(c) for c in basis]
    return Subgroup(G, _canonicalize_igs(G, {depth(c): c for c in basis}))


def centralizer_mod(G: PcGroup, H: Subgroup, N: Subgroup) -> Subgroup:
    """Largest K <= G with [K, H] <= N; requires N normal in G.

    K is the kernel of x |-> ([x, h] mod N)_h over h in igs(H), found by
    ``kernel_by_layers`` from g_1, ..., g_n.  The image of x at h is the
    sift r of [x, h] through igs(N), so r = n [x, h] for some n in N, and it
    stops at r = 1 or at the first depth of r with no member of N.

    - K_{k-1} = {x : [x, H] <= N G_k}.  For x in it, N G_k / N G_{k+1} is
      central in G/N G_{k+1}, as [N G_k, G] <= [N, G] G_{k+1} <= N G_{k+1}.
      So [xy, h] = [x, h]^y [y, h] = [x, h][y, h] mod N G_{k+1}, and
      x |-> [x, h] N G_{k+1} is a homomorphism on K_{k-1}.  H's igs is
      enough: [x, hh'] = [x, h'][x, h]^h', so the h with [x, h] in
      N G_{k+1} form a subgroup.
    - For x in K_{k-1}, the residue lemma of ``sift`` puts r in G_k and
      makes exponent k of r the class of [x, h] in N G_k / N G_{k+1}: the
      layer map, so K_k = {x : [x, H] <= N G_{k+1}}.

    The normality check and the post-check [K, H] <= N both stay.
    """
    if H.group is not G or N.group is not G:
        raise PcgError("subgroup parent mismatch")
    if not N.is_normal():
        raise PcgError("N is not normal in G")
    K = kernel_by_layers(
        G,
        G.generators(),
        lambda x: [sift(G, N._by_depth, G.commutator(x, h)) for h in H.igs],
    )
    if not comm_subgroup(K, H).is_subset(N):
        raise ArithmeticError("centralizer check failed: [K, H] is not inside N")
    return K


# -- parsing ---------------------------------------------------------------


def _parse_word(text: str, line_no: int) -> Word:
    text = text.strip()
    if not text:
        return ()
    letters: List[Tuple[int, int]] = []
    for tok in text.split():
        if not tok.startswith("g"):
            raise PcgSyntaxError(line_no, f"bad word token {tok!r}")
        body = tok[1:]
        if "^" in body:
            idx_s, exp_s = body.split("^", 1)
        else:
            idx_s, exp_s = body, "1"
        try:
            idx, exp = int(idx_s), int(exp_s)
        except ValueError:
            raise PcgSyntaxError(line_no, f"bad word token {tok!r}") from None
        if idx < 1:
            raise PcgSyntaxError(line_no, f"bad generator index in {tok!r}")
        letters.append((idx, exp))
    return tuple(letters)


def parse_pcgroup(text: str, name: str = "", check: bool = True) -> PcGroup:
    """Parse the .pcg format (see README) into a PcGroup."""
    p = None
    n = None
    pow_words: Dict[int, Word] = {}
    comm_words: Dict[Tuple[int, int], Word] = {}
    aut_lines: List[Tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("aut:") or (aut_lines and not line):
            # past the first `aut:` line a blank line separates two
            # automorphisms, as in a sidecar
            aut_lines.append((line_no, line))
            continue
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "p":
            if p is not None or len(parts) != 2:
                raise PcgSyntaxError(line_no, "expected a single 'p <prime>' line")
            try:
                p = int(parts[1])
            except ValueError:
                raise PcgSyntaxError(line_no, "p must be an integer") from None
            bad = _prime_error(p)
            if bad:
                raise PcgSyntaxError(line_no, bad)
        elif head == "n":
            if p is None:
                raise PcgSyntaxError(line_no, "'n' line before 'p' line")
            if n is not None or len(parts) != 2:
                raise PcgSyntaxError(line_no, "expected a single 'n <count>' line")
            try:
                n = int(parts[1])
            except ValueError:
                raise PcgSyntaxError(line_no, "n must be an integer") from None
            if n < 0:
                raise PcgSyntaxError(line_no, "n must be non-negative")
        elif head == "pow":
            if n is None:
                raise PcgSyntaxError(line_no, "relation before 'n' line")
            if len(parts) < 3 or parts[2] != "=":
                raise PcgSyntaxError(line_no, "expected 'pow <i> = <word>'")
            i = _parse_rel_index(parts[1], n, line_no)
            word = _parse_word(line.split("=", 1)[1], line_no)
            _check_word_indices(word, i, n, line_no)
            if i in pow_words:
                raise PcgSyntaxError(line_no, f"duplicate pow relation for g{i}")
            pow_words[i] = word
        elif head == "comm":
            if n is None:
                raise PcgSyntaxError(line_no, "relation before 'n' line")
            if len(parts) < 4 or parts[3] != "=":
                raise PcgSyntaxError(line_no, "expected 'comm <j> <i> = <word>'")
            j = _parse_rel_index(parts[1], n, line_no)
            i = _parse_rel_index(parts[2], n, line_no)
            if j <= i:
                raise PcgSyntaxError(
                    line_no, f"comm {j} {i}: lower index on left (need j > i)"
                )
            word = _parse_word(line.split("=", 1)[1], line_no)
            _check_word_indices(word, j, n, line_no)
            if (j, i) in comm_words:
                raise PcgSyntaxError(line_no, f"duplicate comm relation for ({j},{i})")
            comm_words[(j, i)] = word
        else:
            raise PcgSyntaxError(line_no, f"unknown directive {head!r}")
    if p is None or n is None:
        raise PcgError("missing 'p' or 'n' line")
    return PcGroup(p, n, pow_words, comm_words, check=check, name=name, aut_lines=aut_lines)


def _parse_rel_index(tok: str, n: int, line_no: int) -> int:
    try:
        i = int(tok)
    except ValueError:
        raise PcgSyntaxError(line_no, f"bad generator index {tok!r}") from None
    if not (1 <= i <= n):
        raise PcgSyntaxError(line_no, f"generator index {i} out of range")
    return i


def _check_word_indices(word: Word, above: int, n: int, line_no: int) -> None:
    for k, _ in word:
        if k > n:
            raise PcgSyntaxError(line_no, f"generator index {k} out of range")
        if k <= above:
            raise PcgSyntaxError(
                line_no, f"relation word uses g{k} but needs indices > {above}"
            )


def read_utf8(path) -> str:
    """The text of a .pcg or .aut file; ``PcgError`` if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PcgError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def parse_pcg_file(path, check: bool = True) -> PcGroup:
    return parse_pcgroup(read_utf8(path), name=Path(path).stem, check=check)


# -- direct products --------------------------------------------------------


def direct_product(G1: PcGroup, G2: PcGroup) -> PcGroup:
    """Direct product on n1 + n2 generators with trivial cross commutators."""
    if G1.p != G2.p:
        raise PcgError("direct products require the same prime")
    n1 = G1.n
    pow_words: Dict[int, Word] = {}
    comm_words: Dict[Tuple[int, int], Word] = {}
    for i, w in G1.pow_words.items():
        pow_words[i] = w
    for (j, i), w in G1.comm_words.items():
        comm_words[(j, i)] = w
    for i, w in G2.pow_words.items():
        pow_words[i + n1] = tuple((k + n1, e) for k, e in w)
    for (j, i), w in G2.comm_words.items():
        comm_words[(j + n1, i + n1)] = tuple((k + n1, e) for k, e in w)
    name = f"{G1.name or 'G1'}x{G2.name or 'G2'}"
    G = PcGroup(G1.p, n1 + G2.n, pow_words, comm_words, check=False, name=name)
    f1 = G1.factors or [(0, G1)]
    f2 = G2.factors or [(0, G2)]
    G.factors = [(off, H) for off, H in f1] + [(off + n1, H) for off, H in f2]
    return G


def embed(x: Elem, offset: int, total_n: int) -> Elem:
    """Embed a factor element into a product group's coordinates."""
    return (0,) * offset + tuple(x) + (0,) * (total_n - offset - len(x))
