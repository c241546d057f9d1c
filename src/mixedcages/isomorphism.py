"""Canonical labeling, isomorphism testing, and automorphism groups.

Mixed graphs carry three adjacency relations (edge, arc-out, arc-in),
and all three drive an iterative color refinement (McKay & Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).  The
refinement keeps the color classes as cells in color order and, each
round, splits only the non-singleton cells, by their members' sorted
neighbor colors in the three relations; singletons just take the next
rank.  Canonical labeling runs the usual individualization-refinement
backtrack: refine to an equitable coloring, branch on the vertices of
the first smallest non-singleton cell, and keep the lexicographically
least adjacency encoding over all discrete leaves.  Whenever two leaves
produce the same encoding, composing their labelings yields a graph
automorphism.  At every level, the discovered automorphisms that fix
the individualized prefix prune the cell's vertices that lie in the
orbit of an already tried one; collected together, they generate the
full automorphism group.  The group order comes from an incremental
Schreier-Sims stabilizer chain fed with the collected elements: each
one that is not yet in the group becomes a reported generator, and only
the levels its residue touches are re-completed.  Plain closure
enumeration serves small groups and tests as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from .graphs import MixedGraph, Permutation, apply_permutation, degree_profile


class TooLargeError(ValueError):
    """Group enumeration exceeded its cap."""


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant encoding plus a permutation achieving it.

    Two mixed graphs are isomorphic iff their encodings are equal.
    ``apply_permutation(g, permutation)`` realizes the canonical
    labeling of ``g``.
    """

    encoding: bytes
    permutation: Permutation


@dataclass(frozen=True)
class AutGroup:
    """Automorphism group given by generators and exact order."""

    n: int
    generators: tuple[Permutation, ...]
    order: int

    def elements(self, cap: int = 10_000) -> list[Permutation]:
        """All group elements by closure enumeration (TooLargeError past cap)."""
        return [
            Permutation(t)
            for t in _closure([p.image for p in self.generators], self.n, cap)
        ]


@dataclass(frozen=True)
class GroupFingerprint:
    """Coarse structure report: order, commutativity, max element order."""

    order: int
    abelian: bool
    max_element_order: int
    name: str | None


def canonical_form(g: MixedGraph) -> CanonicalForm:
    """Canonical encoding; equal across all relabelings of the same graph."""
    enc, perm, _ = _ir_search(g)
    return CanonicalForm(enc, perm)


def is_isomorphic(
    g: MixedGraph, h: MixedGraph
) -> tuple[bool, Permutation | None]:
    """Isomorphism test with witness mapping g onto h."""
    if g.n != h.n or len(g.edges) != len(h.edges) or len(g.arcs) != len(h.arcs):
        return False, None
    pg, ph = degree_profile(g), degree_profile(h)
    if sorted(zip(pg.deg, pg.outdeg, pg.indeg)) != sorted(
        zip(ph.deg, ph.outdeg, ph.indeg)
    ):
        return False, None
    cg = canonical_form(g)
    ch = canonical_form(h)
    if cg.encoding != ch.encoding:
        return False, None
    witness = ch.permutation.inverse() @ cg.permutation
    return True, witness


def automorphism_group(g: MixedGraph) -> AutGroup:
    """Generators and exact order of the automorphism group.

    Order comes from a stabilizer chain over the automorphisms collected
    during canonical labeling; every generator is re-verified against
    the graph before being reported.
    """
    special = _symmetric_special_case(g)
    if special is not None:
        return special
    _, _, elements = _ir_search(g)
    chain = _StabChain(g.n)
    gens: list[Permutation] = []
    for img in sorted(elements):
        if chain.extend(img):
            p = Permutation(img)
            if apply_permutation(g, p) != g:
                raise RuntimeError(
                    f"reported generator {img} is not an automorphism"
                )
            gens.append(p)
    return AutGroup(n=g.n, generators=tuple(gens), order=chain.order())


def group_fingerprint(group: AutGroup, cap: int = 1000) -> GroupFingerprint:
    """Order, abelianness, and max element order, with a name when the
    combination pins the group down.

    An abelian group of order 20 with maximum element order 10 is
    Z2 x Z10 (the only other abelian order-20 group is cyclic, with an
    element of order 20).  Cyclic groups are recognized by max element
    order equal to the group order.
    """
    if group.order > cap:
        raise TooLargeError(
            f"group order {group.order} exceeds enumeration cap {cap}"
        )
    gens = [p.image for p in group.generators]
    elements = _closure(gens, group.n, cap)
    abelian = all(
        _compose(a, b) == _compose(b, a) for a in gens for b in gens
    )
    if abelian:
        # generators commuting with every element puts them in the
        # center, and they generate, so the whole group is abelian
        if not all(
            _compose(a, e) == _compose(e, a) for a in gens for e in elements
        ):
            raise RuntimeError("commuting generators gave a non-abelian group")
    max_order = max(
        (Permutation(e).order() for e in elements), default=1
    )
    name = None
    if abelian and max_order == group.order:
        name = f"Z{group.order}"
    elif abelian and group.order == 20 and max_order == 10:
        name = "Z2 x Z10"
    elif not abelian and group.order == 6:
        name = "S3"
    return GroupFingerprint(group.order, abelian, max_order, name)


# ---------------------------------------------------------------------------
# individualization-refinement search


def _refine(
    g: MixedGraph, colors: list[int]
) -> tuple[list[int], list[list[int]]]:
    """Equitable refinement over the three relations, canonically ranked.

    Returns the colors, ranked 0..k-1, and the color cells in color
    order, each listing its vertices in ascending order.  A round gives
    each member of a non-singleton cell the signature of its sorted
    edge, out- and in-neighbor colors, ranks the cell's sub-cells by
    signature, and renumbers all cells in order; a singleton cell just
    takes the next rank.  That is the ranking of the vertices by
    (color, signature) over the whole graph.  Refinement stops when a
    round splits no cell.
    """
    edge, out, inn = g.edge_neighbors, g.out_neighbors, g.in_neighbors
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    cells = [by_color[c] for c in sorted(by_color)]
    colors = [0] * g.n
    col = colors.__getitem__
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                colors[v] = i
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            subs: dict[tuple, list[int]] = {}
            for v in cell:
                sig = (
                    tuple(sorted(map(col, edge[v]))),
                    tuple(sorted(map(col, out[v]))),
                    tuple(sorted(map(col, inn[v]))),
                )
                subs.setdefault(sig, []).append(v)
            split.extend(subs[sig] for sig in sorted(subs))
        if len(split) == len(cells):
            return colors, cells
        cells = split


def _individualize(colors: list[int], v: int) -> list[int]:
    return [c * 2 + (0 if u == v else 1) for u, c in enumerate(colors)]


def _encode(g: MixedGraph, pos: list[int]) -> bytes:
    """Row-major byte encoding of the three relations under a labeling."""
    n = g.n
    buf = bytearray(n * n)
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        buf[i * n + j] |= 1
        buf[j * n + i] |= 1
    for u, v in g.arcs:
        buf[pos[u] * n + pos[v]] |= 2
    return bytes(buf)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _ir_search(
    g: MixedGraph,
) -> tuple[bytes, Permutation, list[tuple[int, ...]]]:
    """Backtracking search; returns the canonical encoding, one canonical
    labeling, and all automorphisms discovered from equal-encoding leaves.

    Branch pruning: two candidate vertices of a target cell lead to
    interchangeable subtrees whenever a known automorphism that fixes
    every previously individualized vertex maps one to the other, so
    only one orbit representative per prefix-stabilizer orbit is
    explored.  The skipped subtrees contribute neither a smaller
    encoding nor automorphisms outside the group already generated.
    """
    n = g.n
    if n == 0:
        return b"", Permutation(()), []
    best: list[bytes | None] = [None]
    best_perm: list[Permutation | None] = [None]
    seen: dict[bytes, tuple[int, ...]] = {}
    autos: list[tuple[int, ...]] = []

    def leaf(colors: list[int]) -> None:
        enc = _encode(g, colors)
        perm = tuple(colors)
        if enc in seen:
            other = seen[enc]
            # apply(g, other) == apply(g, perm), so inv(other) . perm
            # fixes g; record it
            phi = _compose(_invert(other), perm)
            if apply_permutation(g, Permutation(phi)) == g:
                autos.append(phi)
        else:
            seen[enc] = perm
        if best[0] is None or enc < best[0]:
            best[0] = enc
            best_perm[0] = Permutation(perm)

    def prefix_orbit_uf(prefix: tuple[int, ...]) -> _UnionFind:
        uf = _UnionFind(n)
        for phi in autos:
            if all(phi[x] == x for x in prefix):
                for x in range(n):
                    uf.union(x, phi[x])
        return uf

    def descend(colors: list[int], prefix: tuple[int, ...]) -> None:
        colors, cells = _refine(g, colors)
        if len(cells) == n:
            leaf(colors)
            return
        # the first smallest non-singleton cell in color order
        cell = min((c for c in cells if len(c) > 1), key=len)
        tried: list[int] = []
        autos_seen = -1
        uf = None
        for v in cell:
            if tried:
                if len(autos) != autos_seen:
                    uf = prefix_orbit_uf(prefix)
                    autos_seen = len(autos)
                if any(uf.find(v) == uf.find(u) for u in tried):
                    continue
            tried.append(v)
            descend(_individualize(colors, v), prefix + (v,))

    descend([0] * n, ())
    if best[0] is None or best_perm[0] is None:
        raise RuntimeError("canonical labeling search reached no leaf")
    return best[0], best_perm[0], autos


def _symmetric_special_case(g: MixedGraph) -> AutGroup | None:
    """Full symmetric group shortcuts for the all-or-nothing graphs.

    The general path gets these right too (n! for every n tested), but
    slowly: search plus chain take about 2 s at n = 20 and 20 s at
    n = 30 on a 2-vCPU host, where this shortcut is instant.
    """
    n = g.n
    full_edges = n * (n - 1) // 2
    if g.arcs:
        return None
    if len(g.edges) not in (0, full_edges):
        return None
    if n <= 2:
        gens: tuple[Permutation, ...] = ()
        if n == 2:
            gens = (Permutation((1, 0)),)
        return AutGroup(n=n, generators=gens, order=factorial(n))
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = [(i + 1) % n for i in range(n)]
    return AutGroup(
        n=n,
        generators=(Permutation(tuple(swap)), Permutation(tuple(cycle))),
        order=factorial(n),
    )


# ---------------------------------------------------------------------------
# permutation group machinery

_Perm = tuple[int, ...]


def _compose(p: _Perm, q: _Perm) -> _Perm:
    """(p . q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def _invert(p: _Perm) -> _Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _closure(gens: list[_Perm], n: int, cap: int) -> list[_Perm]:
    """All elements generated by gens, in sorted order."""
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for s in gens:
                f = _compose(s, e)
                if f not in elements:
                    if len(elements) >= cap:
                        raise TooLargeError(
                            f"closure exceeded enumeration cap {cap}"
                        )
                    elements.add(f)
                    nxt.append(f)
        frontier = nxt
    return sorted(elements)


class _StabChain:
    """Incremental deterministic Schreier-Sims chain (Seress, Permutation
    Group Algorithms, 2003, ch. 4).

    Level i holds base point ``base[i]``, the strong generators that fix
    ``base[:i]`` and move ``base[i]``, and the transversal of the orbit
    of ``base[i]`` under the generators of level i and deeper, which
    generate the stabilizer of ``base[:i]``.  The chain is complete after
    every ``extend``, so a sift decides membership and the order is the
    product of the orbit sizes.  A residue that survives a sift becomes
    a strong generator at the level where the sift stopped (a new base
    point if it fixes them all), and only that level and the ones above
    it are re-completed, deepest first.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.identity = tuple(range(n))
        self.base: list[int] = []
        self.level_gens: list[list[_Perm]] = []
        self.transversal: list[dict[int, _Perm]] = []

    def order(self) -> int:
        return prod(len(t) for t in self.transversal)

    def extend(self, p: _Perm) -> bool:
        """Add p to the group; returns True if the group grew."""
        residue, lvl = self._sift(p, 0)
        if residue == self.identity:
            return False
        self._install(residue, lvl, 0)
        return True

    def _sift(self, p: _Perm, start: int) -> tuple[_Perm, int]:
        """Residue of p and the level where sifting stopped."""
        for lvl in range(start, len(self.base)):
            t = self.transversal[lvl].get(p[self.base[lvl]])
            if t is None:
                return p, lvl
            p = _compose(_invert(t), p)
        return p, len(self.base)

    def _install(self, s: _Perm, lvl: int, top: int) -> None:
        """Add strong generator s at lvl, then re-complete lvl..top."""
        if lvl == len(self.base):
            self.base.append(min(i for i in range(self.n) if s[i] != i))
            self.level_gens.append([])
            self.transversal.append({})
        self.level_gens[lvl].append(s)
        for i in range(lvl, top - 1, -1):
            # deeper levels are complete; each residue installed below i
            # re-completes them and adds a generator to level i
            while (found := self._schreier_residue(i)) is not None:
                self._install(*found, i + 1)

    def _schreier_residue(self, i: int) -> tuple[_Perm, int] | None:
        """Re-close the orbit at level i; the first Schreier generator
        residue that is not the identity, with its level, or None."""
        gens = [s for level in self.level_gens[i:] for s in level]
        trans = {self.base[i]: self.identity}
        queue = [self.base[i]]
        for x in queue:
            for s in gens:
                if s[x] not in trans:
                    trans[s[x]] = _compose(s, trans[x])
                    queue.append(s[x])
        self.transversal[i] = trans
        for x, tx in trans.items():
            for s in gens:
                schreier = _compose(_invert(trans[s[x]]), _compose(s, tx))
                residue, lvl = self._sift(schreier, i + 1)
                if residue != self.identity:
                    return residue, lvl
        return None
