"""Canonical labeling, isomorphism testing, and automorphism groups.

Mixed graphs carry three adjacency relations (edge, arc-out, arc-in),
and all three drive an iterative color refinement (McKay & Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).  The
refinement starts from the vertices grouped by their (edge, out, in)
degrees, keeps the color classes as cells in color order and, each
round, splits only the non-singleton cells, by one flat sorted tuple
per member: its edge-neighbor colors, its out-neighbor colors plus n
and its in-neighbor colors plus 2n; singletons keep their place.  The
offsets keep the three segments apart, and the members of a cell share
their three degrees, so each segment has the same length for every
member and two members' tuples are equal exactly when their neighbor
colors agree relation by relation.
Canonical labeling runs the usual individualization-refinement
backtrack: refine to an equitable coloring, branch on the vertices of
the first smallest non-singleton cell, and keep the lexicographically
least adjacency encoding over all discrete leaves.  A child node takes
its parent's cells with the target cell split into the branch vertex
and the rest, which stay degree-uniform.  Whenever two leaves
produce the same encoding, composing their labelings yields a graph
automorphism.  At every level, the discovered automorphisms that fix
the individualized prefix prune the cell's vertices that lie in the
orbit of an already tried one.  The first path is the branch that
individualizes the first vertex of each target cell down to the first
leaf.  It is the same for every search of a graph, so its refined
partitions are computed once per graph object, on its first search,
and kept on that object for as long as it lives; every later search of
it descends them without refining (nauty and Traces keep their first
path for the same reuse).  A leaf with the first leaf's encoding sends
the search straight back to the level where its path left the first
path (McKay, "Practical graph isomorphism", Congr. Numer. 30, 1981).
The group order is the product, over the first path's levels, of that
vertex's orbit size in its cell under the discovered automorphisms that
fix the level's prefix; the ones that join two orbits at some level are
the generators.  An isomorphism test labels neither graph canonically:
it takes the first leaf of h's first path and searches g's tree for a
leaf with that encoding, stopping at the first one (McKay 1981), so
g's search is exhausted only when the two are not isomorphic.  Plain
closure enumeration serves small groups and tests as an independent
check.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .graphs import (
    MixedGraph, Permutation, apply_permutation, degree_profile, per_graph)


class TooLargeError(ValueError):
    """Group enumeration exceeded its cap."""


class CanonicalForm(NamedTuple):
    """Relabeling-invariant encoding plus a permutation achieving it.

    Two mixed graphs are isomorphic iff their encodings are equal.
    ``apply_permutation(g, permutation)`` realizes the canonical
    labeling of ``g``.
    """

    encoding: bytes
    permutation: Permutation


class AutGroup(NamedTuple):
    """Automorphism group: generators and the first-path orbit product.

    The generators generate the group but need not be a minimal set:
    for the two paths 0-1-3 and 2-4-5 they are (2 5), (0 2)(1 4)(3 5)
    and an extra (0 3), which the first two already produce.
    """

    n: int
    generators: tuple[Permutation, ...]
    order: int

    def elements(self, cap: int = 10_000) -> list[Permutation]:
        """All group elements by closure enumeration (TooLargeError past cap)."""
        return [
            Permutation(t)
            for t in _closure([p.image for p in self.generators], self.n, cap)
        ]


class GroupFingerprint(NamedTuple):
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
    """Isomorphism test with witness mapping g onto h.

    Their sorted degree triples must agree.  Then g's search stops at
    the first leaf with the encoding of h's first leaf: g and h are
    isomorphic exactly when g's search finds one.  The degree triples,
    h's first path and its leaf are each kept on their graph object.
    A found leaf's labeling, followed by the inverse of h's, maps g
    onto h: that is the witness.  Conversely, the tree is
    labeling-invariant, so for any isomorphism phi from g onto
    h, phi's preimage of h's first path is a path of g's tree, and it
    ends in a leaf with h's encoding.  Orbit pruning and the jump back
    skip only subtrees that are automorphism images of subtrees already
    explored; an automorphism keeps leaf encodings, and the explored
    subtrees held no target leaf, or the search would have stopped
    there.  So g's search finds a target leaf whenever one exists.
    """
    if _degree_key(g) != _degree_key(h):
        return False, None
    target, unlabel = _first_leaf(h)
    found = _ir_search(g, until=target.__eq__)
    if found is None:
        return False, None
    return True, unlabel @ found[1]


def automorphism_group(g: MixedGraph) -> AutGroup:
    """Generators and exact order of the automorphism group.

    Level i of g's first path (refined on g's first search and kept on
    g) has prefix p_i and target cell C_i, and the order is the product
    of |orbit of C_i[0] within C_i| under the discovered automorphisms
    that fix p_i.  It is exact: every vertex of C_i is explored or
    pruned by a known automorphism that fixes p_i; an explored vertex
    in the true orbit reaches a leaf whose encoding equals the first
    leaf's (in its subtree only such a leaf jumps, and pruning skips
    images of subtrees explored without one), and the automorphism
    recorded there, before the jump back to level i, fixes p_i; so
    orbit-stabilizer applies down to the discrete leaf.  The generators are the discovered automorphisms that, taken
    in sorted order, join two orbits at some level.  They give the same
    orbits at every level, so they generate the group; each is
    re-verified against the graph.  A generator is kept when it joins
    two orbits at its level even if the earlier ones already produce
    it, so the set need not be minimal (see AutGroup).
    """
    _, _, autos = _ir_search(g)
    autos.sort()
    order = 1
    joiners: set[_Perm] = set()
    for prefix, cell in _first_path(g).levels:
        orbits = _PrefixOrbits(g.n, autos, prefix)
        order *= sum(orbits.find(v) == orbits.find(cell[0]) for v in cell)
        joiners.update(orbits.joined)
    gens = tuple(map(Permutation, sorted(joiners)))
    bad = [p.image for p in gens if apply_permutation(g, p) != g]
    if bad:
        raise RuntimeError(f"reported generators {bad} are not automorphisms")
    return AutGroup(n=g.n, generators=gens, order=order)


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


def _degree_cells(g: MixedGraph) -> list[list[int]]:
    """The vertices grouped by their (edge, out, in) degrees: cells in
    ascending degree order, members in ascending order."""
    by_degree: dict[tuple[int, int, int], list[int]] = {}
    degrees = zip(
        map(len, g.edge_neighbors),
        map(len, g.out_neighbors),
        map(len, g.in_neighbors),
    )
    for v, key in enumerate(degrees):
        by_degree.setdefault(key, []).append(v)
    return [by_degree[key] for key in sorted(by_degree)]


def _refine_cells(g: MixedGraph, cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of degree-uniform cells, canonically ranked.

    ``cells`` lists the color cells in color order, each in ascending
    order, and the members of each cell share their (edge, out, in)
    degrees.  A cell's color is its start, the number of vertices in
    the cells before it: that grows with the cell order as a rank
    does, and a split changes the colors of the split cell's members
    only.  A round gives each member of a non-singleton cell one flat
    signature, the sorted colors of its edge neighbors, of its
    out-neighbors plus n and of its in-neighbors plus 2n in one tuple
    (read through ``g.flat_neighbors``), and puts the cell's sub-cells
    in signature order.  Colors are below n, so the offsets keep the
    three segments apart and in relation order, and within a
    degree-uniform cell each segment has the same length for every
    member; so two members share a signature exactly when they share
    their neighbor colors in each relation.  A cell whose members share
    one signature stays as it is.  Refinement stops when a round splits
    no cell; splitting a degree-uniform cell leaves degree-uniform
    cells.
    """
    n, n2 = g.n, 2 * g.n
    nbrs = g.flat_neighbors
    color = [0] * (3 * n)  # color[v + k * n] is v's color plus k * n
    col = color.__getitem__
    moved: list[tuple[int, list[int]]] = []
    start = 0
    for cell in cells:
        moved.append((start, cell))
        start += len(cell)
    while True:
        for start, cell in moved:
            for v in cell:
                color[v] = start
                color[v + n] = start + n
                color[v + n2] = start + n2
        moved = []
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            subs: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                subs.setdefault(tuple(sorted(map(col, nbrs[v]))), []).append(v)
            if len(subs) == 1:
                split.append(cell)
                continue
            start = color[cell[0]]
            for sig in sorted(subs):
                sub = subs[sig]
                split.append(sub)
                moved.append((start, sub))
                start += len(sub)
        if not moved:
            return cells
        cells = split


def _target(cells: list[list[int]]) -> list[int]:
    """The cell a node branches on: the first smallest non-singleton
    cell in color order."""
    return min((c for c in cells if len(c) > 1), key=len)


def _individualize(
    cells: list[list[int]], i: int, v: int
) -> list[list[int]]:
    """The child's unrefined cells: v goes first, ahead of the rest of
    its cell cells[i]."""
    return cells[:i] + [[v], [u for u in cells[i] if u != v]] + cells[i + 1:]


@per_graph
def _degree_key(g: MixedGraph) -> tuple[tuple[int, int, int], ...]:
    """g's sorted (edge, out, in) degree triples, kept on g; they also
    fix the order and the numbers of edges and arcs."""
    p = degree_profile(g)
    return tuple(sorted(zip(p.deg, p.outdeg, p.indeg)))


class _FirstPath(NamedTuple):
    """The first path of a graph's labeling search.

    ``partitions`` holds the refined cells of each node on it, the
    root's first and the discrete leaf's last; ``levels`` holds the
    (prefix, target cell) pair of each node above the leaf.  Every
    search of the graph object shares them, so nothing may change them:
    a search only reads them and builds each child's cells anew.
    """

    partitions: tuple[list[list[int]], ...]
    levels: tuple[tuple[_Perm, list[int]], ...]


@per_graph
def _first_path(g: MixedGraph) -> _FirstPath:
    """g's first path: from the degree cells down to the first discrete
    leaf, individualizing the first vertex of each target cell; kept on
    g, so an equal graph built apart refines its own."""
    cells = _refine_cells(g, _degree_cells(g))
    partitions = [cells]
    levels: list[tuple[_Perm, list[int]]] = []
    prefix: _Perm = ()
    while len(cells) < g.n:
        cell = _target(cells)
        levels.append((prefix, cell))
        prefix += (cell[0],)
        cells = _refine_cells(
            g, _individualize(cells, cells.index(cell), cell[0]))
        partitions.append(cells)
    return _FirstPath(tuple(partitions), tuple(levels))


@per_graph
def _first_leaf(h: MixedGraph) -> tuple[bytes, Permutation]:
    """The encoding of h's first leaf and the inverse of its labeling,
    kept on h."""
    pos = _labeling(_first_path(h).partitions[-1])
    return _encode(h, pos), Permutation(tuple(pos)).inverse()


def _labeling(cells: list[list[int]]) -> list[int]:
    """The labeling of a discrete leaf: each vertex's cell index."""
    pos = [0] * len(cells)
    for i, (v,) in enumerate(cells):
        pos[v] = i
    return pos


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


class _PrefixOrbits:
    """Union-find of the orbits of the automorphisms in autos that fix
    prefix; ``joined`` lists the ones among them that joined two
    orbits, in the order of autos."""

    def __init__(self, n: int, autos: list[_Perm], prefix: _Perm) -> None:
        self.parent = list(range(n))
        self.joined = [
            phi for phi in autos
            if all(phi[x] == x for x in prefix) and self._absorb(phi)
        ]

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def _absorb(self, phi: _Perm) -> bool:
        joined = False
        for x, y in enumerate(phi):
            rx, ry = self.find(x), self.find(y)
            if rx != ry:
                self.parent[max(rx, ry)] = min(rx, ry)
                joined = True
        return joined


def _ir_search(
    g: MixedGraph, until: Callable[[bytes], bool] | None = None
) -> tuple[bytes, Permutation, list[_Perm]] | None:
    """Backtracking search; returns the canonical encoding, one canonical
    labeling, and all automorphisms discovered from equal-encoding
    leaves.

    With ``until``, the first leaf whose encoding satisfies it takes the
    place of the canonical one and ends the search; when no leaf does,
    the result is None.

    The first path comes from ``_first_path(g)``, refined on g's first
    search and kept on g: a node whose ancestors all took the first
    vertex of their target cell reads its cells from it, and only the
    nodes off it refine.

    Branch pruning: two candidate vertices of a target cell lead to
    interchangeable subtrees whenever a known automorphism that fixes
    every previously individualized vertex maps one to the other, so
    only one orbit representative per prefix-stabilizer orbit is
    explored.  The skipped subtrees contribute neither a smaller
    encoding nor automorphisms outside the group already generated.

    Jump back: a leaf with the first leaf's encoding records the
    automorphism that maps its path onto the first path; if the two
    part at depth k, the levels deeper than k return at once and level
    k goes on with its next vertex.  The subtree left behind is that
    automorphism's preimage of the first path's explored subtree at
    depth k + 1, so it holds no new encoding.
    """
    n = g.n
    first = _first_path(g)
    # the least leaf so far, or with until the leaf that met it
    best: list[tuple[bytes, Permutation]] = []
    seen: dict[bytes, tuple[int, ...]] = {}
    autos: list[_Perm] = []

    def leaf(cells: list[list[int]], prefix: tuple[int, ...]) -> int:
        """Record the leaf; return the depth to resume at (-1 to stop)."""
        pos = _labeling(cells)
        enc = _encode(g, pos)
        perm = tuple(pos)
        if until is None:
            if not best or enc < best[0][0]:
                best[:] = [(enc, Permutation(perm))]
        elif until(enc):
            best[:] = [(enc, Permutation(perm))]
            return -1
        depth = len(prefix)
        if enc not in seen:
            seen[enc] = perm
            return depth
        # equal encodings: inv(seen[enc]) . perm fixes g; record it
        phi = _compose(_invert(seen[enc]), perm)
        if apply_permutation(g, Permutation(phi)) != g:
            return depth
        autos.append(phi)
        # seen keeps insertion order: its first key is the first leaf's
        if enc != next(iter(seen)):
            return depth
        # the first level where this path left the first path
        return next(
            k for k, v in enumerate(prefix) if v != first.levels[k][1][0])

    def descend(
        cells: list[list[int]], prefix: tuple[int, ...], on_path: bool
    ) -> int:
        """Explore the node (on the first path when ``on_path``); return
        the depth to resume at (k on a jump, -1 once ``until`` is met)."""
        if len(cells) == n:
            return leaf(cells, prefix)
        depth = len(prefix)
        cell = _target(cells)
        i = cells.index(cell)
        tried: list[int] = []
        autos_seen = -1
        uf = None
        for v in cell:
            if tried:
                if len(autos) != autos_seen:
                    uf = _PrefixOrbits(n, autos, prefix)
                    autos_seen = len(autos)
                if any(uf.find(v) == uf.find(u) for u in tried):
                    continue
            tried.append(v)
            on = on_path and v == cell[0]
            child = (first.partitions[depth + 1] if on
                     else _refine_cells(g, _individualize(cells, i, v)))
            resume = descend(child, prefix + (v,), on)
            if resume < depth:
                return resume
        return depth

    descend(first.partitions[0], (), True)
    if best:
        return (*best[0], autos)
    if until is None:
        raise RuntimeError("canonical labeling search reached no leaf")
    return None


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
