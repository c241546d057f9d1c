"""Mixed graphs: undirected edges plus directed arcs on vertices 0..n-1.

A mixed graph stores an edge set (unordered pairs) and an arc set (ordered
pairs) over dense integer vertices.  Graphs are immutable after
construction, so they are safe to share across worker threads or
processes.  1-cycles (loops) are excluded by construction; 2-cycles
(an edge together with an arc on the same pair, or antiparallel arcs)
are representable and left to girth checking to reject.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, wraps
from math import lcm
from typing import Callable, Iterable, NamedTuple

Pair = tuple[int, int]


class GraphError(ValueError):
    """Base class for graph construction and manipulation errors."""


class OutOfRangeError(GraphError):
    """An endpoint is not in 0..n-1."""


class SelfLoopError(GraphError):
    """A pair connects a vertex to itself."""


class DuplicateError(GraphError):
    """The same edge or arc was supplied twice.

    Duplicates are rejected rather than silently merged: in an algebraic
    construction a repeated pair almost always means an index-arithmetic
    bug, and merging would hide it.
    """


class LengthMismatchError(GraphError):
    """A permutation's length does not match the graph order."""


def _normalize_edge(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class MixedGraph:
    """Immutable mixed graph on vertices 0..n-1.

    Edges are stored as (min, max) pairs, arcs as (tail, head) pairs.
    Use :func:`new_graph` to construct with validation.
    """

    n: int
    edges: frozenset[Pair]
    arcs: frozenset[Pair]

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    @cached_property
    def edge_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the sorted vertices joined to it by an edge."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the sorted heads of arcs leaving it."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[u].append(v)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the sorted tails of arcs entering it."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def flat_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, its edge neighbors, its out-neighbors plus n
        and its in-neighbors plus 2n: indices into three copies of a
        vertex array laid end to end, one copy per relation."""
        n = self.n
        return tuple(
            e + tuple(w + n for w in o) + tuple(w + 2 * n for w in i)
            for e, o, i in zip(
                self.edge_neighbors, self.out_neighbors, self.in_neighbors
            )
        )

    def sorted_edges(self) -> list[Pair]:
        return sorted(self.edges)

    def sorted_arcs(self) -> list[Pair]:
        return sorted(self.arcs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MixedGraph(n={self.n}, edges={len(self.edges)}, "
            f"arcs={len(self.arcs)})"
        )


def new_graph(
    n: int,
    edges: Iterable[Pair] = (),
    arcs: Iterable[Pair] = (),
) -> MixedGraph:
    """Build a validated MixedGraph.

    Raises GraphError for an order or an endpoint that is not an
    integer, OutOfRangeError for endpoints outside 0..n-1, SelfLoopError
    for u == v pairs, and DuplicateError when the same edge (in either
    orientation) or the same arc is listed twice.  numpy integers are
    stored as ints; a bool or 12.0 is not an integer here.
    """
    if type(n) is not int:
        n = _integer(n)
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    edge_set: set[Pair] = set()
    for u, v in edges:
        if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n
                and u != v):
            u, v = _endpoints(u, v, n)
        e = _normalize_edge(u, v)
        if e in edge_set:
            raise DuplicateError(f"edge {{{u},{v}}} listed twice")
        edge_set.add(e)
    arc_set: set[Pair] = set()
    for u, v in arcs:
        if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n
                and u != v):
            u, v = _endpoints(u, v, n)
        if (u, v) in arc_set:
            raise DuplicateError(f"arc ({u},{v}) listed twice")
        arc_set.add((u, v))
    return MixedGraph(n=n, edges=frozenset(edge_set), arcs=frozenset(arc_set))


def _endpoints(u: int, v: int, n: int) -> Pair:
    """new_graph's slow path for a pair: (u, v) as ints, or the error."""
    if type(u) is not int or type(v) is not int:
        u, v = _integer(u), _integer(v)
    if not (0 <= u < n and 0 <= v < n):
        raise OutOfRangeError(f"endpoint of ({u},{v}) outside 0..{n - 1}")
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u}")
    return u, v


def _integer(x: object) -> int:
    """x as an int when it is an integer other than a bool; GraphError
    otherwise."""
    if isinstance(x, bool):
        raise GraphError(f"{x!r} is a bool, not an integer")
    try:
        return operator.index(x)
    except TypeError:
        raise GraphError(f"{x!r} is not an integer") from None


def per_graph(compute: Callable) -> Callable:
    """Keep compute(g) on the graph object g, in its instance dict under
    compute's name, as ``cached_property`` keeps ``flat_neighbors``: it
    is computed on the first call for the object and released with it,
    and an equal graph built apart computes its own.  Threads that race
    on one graph compute equal facts.  No caller may change one."""
    name = compute.__name__

    @wraps(compute)
    def kept(g: MixedGraph):
        stored = vars(g)
        if name not in stored:
            stored[name] = compute(g)
        return stored[name]

    return kept


class DegreeProfile(NamedTuple):
    """Per-vertex degree data for a mixed graph.

    ``deg`` counts incident edges, ``outdeg``/``indeg`` count arcs from
    and to each vertex.  ``regular`` carries the (r, z) witness when all
    three sequences are constant and out-degree equals in-degree,
    otherwise None.
    """

    deg: tuple[int, ...]
    outdeg: tuple[int, ...]
    indeg: tuple[int, ...]
    regular: tuple[int, int] | None


@per_graph
def degree_profile(g: MixedGraph) -> DegreeProfile:
    """Exact per-vertex degrees and the regularity witness, computed once
    per graph object."""
    deg = [0] * g.n
    outdeg = [0] * g.n
    indeg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    for u, v in g.arcs:
        outdeg[u] += 1
        indeg[v] += 1
    regular = None
    if g.n > 0:
        r = deg[0]
        z = outdeg[0]
        if (
            all(d == r for d in deg)
            and all(o == z for o in outdeg)
            and all(i == z for i in indeg)
        ):
            regular = (r, z)
    return DegreeProfile(tuple(deg), tuple(outdeg), tuple(indeg), regular)


@dataclass(frozen=True)
class Permutation:
    """A bijection on 0..n-1, stored as its image array.

    ``image[v]`` is where vertex ``v`` is sent.  Composition follows
    function composition: ``(p @ q)(v) == p(q(v))``.
    """

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise GraphError("image array is not a permutation of 0..n-1")

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(n)))

    def __call__(self, v: int) -> int:
        return self.image[v]

    def __len__(self) -> int:
        return len(self.image)

    def __matmul__(self, other: Permutation) -> Permutation:
        if len(other) != len(self):
            raise LengthMismatchError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.image[x] for x in other.image))

    def inverse(self) -> Permutation:
        inv = [0] * len(self.image)
        for i, j in enumerate(self.image):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.image))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles of the permutation, each starting at its minimum."""
        seen = [False] * len(self.image)
        out = []
        for i in range(len(self.image)):
            if seen[i] or self.image[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.image[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.image[j]
            out.append(tuple(cyc))
        return out

    def cycle_notation(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def order(self) -> int:
        """Smallest k >= 1 with p^k = identity."""
        return image_order(self.image)


def image_order(image: tuple[int, ...]) -> int:
    """Order of the permutation with this image array: the least common
    multiple of its cycle lengths."""
    order = 1
    seen = bytearray(len(image))
    for start in range(len(image)):
        length = 0
        v = start
        while not seen[v]:
            seen[v] = 1
            v = image[v]
            length += 1
        if length > 1:
            order = lcm(order, length)
    return order


def apply_permutation(g: MixedGraph, p: Permutation) -> MixedGraph:
    """Relabel a graph: edge {u,v} -> {p(u),p(v)}, arc (u,v) -> (p(u),p(v))."""
    if len(p) != g.n:
        raise LengthMismatchError(
            f"permutation length {len(p)} != graph order {g.n}"
        )
    img = p.image
    edges = frozenset(_normalize_edge(img[u], img[v]) for u, v in g.edges)
    arcs = frozenset((img[u], img[v]) for u, v in g.arcs)
    return MixedGraph(n=g.n, edges=edges, arcs=arcs)
