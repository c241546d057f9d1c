"""Girth of a mixed graph, with shortest-cycle witnesses.

A cycle is a vertex sequence v_0..v_k, v_0 = v_k, with no other repeated
vertex, where each consecutive pair is an edge or a forward arc and no
edge or arc is used twice.  Lengths 1 and 2 are possible in principle;
loops cannot occur in the simple graphs this package builds, and
2-cycles arise exactly from antiparallel arcs or an edge coexisting with
an arc on the same pair.

The fast path works per starting incidence: the shortest cycle through
an arc (u,v) is 1 plus the shortest v->u path in the arc-augmented
digraph (edges usable in both directions); for an edge {u,v}, u < v,
the same holds with that edge itself banned from the return path.
Vertex-distinctness comes free from breadth-first search, and banning
the start edge is the only non-reuse constraint that can bind: in a
vertex-distinct cycle of length >= 3 no incidence can repeat anywhere
else.  One orientation of each edge is enough: a shortest cycle that
contains an arc is found from that arc's start, and one of edges only
can be walked from either end of any of its edges.  Each start gets
one breadth-first search that keeps only distances, over per-vertex
neighbor bitmasks (Python ints); the start-edge ban clears u from its
first frontier unless an arc v->u exists.  2-cycles come from the same
searches, at the first level.  The witness is traced once, with
parents, for the first start of least length in sorted order.
`girth_bruteforce` is an independent oracle that enumerates vertex
sequences against the definition literally.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import GraphError, MixedGraph, Pair, _normalize_edge

ARC = "arc"
EDGE = "edge"


class CapExceededError(ValueError):
    """Brute-force search exhausted its length cap without a verdict."""


class CycleWitness(NamedTuple):
    """A closed vertex walk certifying a cycle.

    ``vertices`` is v_0..v_k with v_0 == v_k; ``steps[i]`` tags the
    incidence used between vertices i and i+1 as "edge" or "arc".
    """

    vertices: tuple[int, ...]
    steps: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.steps)


class GirthResult(NamedTuple):
    """Girth value plus a witness; girth None means acyclic."""

    girth: int | None
    witness: CycleWitness | None


def validate_witness(g: MixedGraph, w: CycleWitness) -> None:
    """Check a witness against the cycle definition; raise on violation."""
    vs = w.vertices
    if len(vs) < 2 or vs[0] != vs[-1]:
        raise GraphError("witness must start and end at the same vertex")
    if len(w.steps) != len(vs) - 1:
        raise GraphError("step count does not match vertex count")
    interior = vs[:-1]
    if len(set(interior)) != len(interior):
        raise GraphError("witness repeats a vertex other than the endpoint")
    used: set[tuple[str, Pair]] = set()
    for i, kind in enumerate(w.steps):
        u, v = vs[i], vs[i + 1]
        if kind == EDGE:
            if not g.has_edge(u, v):
                raise GraphError(f"no edge {{{u},{v}}} in host graph")
            key = (EDGE, _normalize_edge(u, v))
        elif kind == ARC:
            if not g.has_arc(u, v):
                raise GraphError(f"no arc ({u},{v}) in host graph")
            key = (ARC, (u, v))
        else:
            raise GraphError(f"unknown step kind {kind!r}")
        if key in used:
            raise GraphError(f"witness reuses {key}")
        used.add(key)


def girth(g: MixedGraph) -> GirthResult:
    """Shortest cycle length and witness, or girth None when acyclic."""
    w = _shortest_cycle(g)
    if w is None:
        return GirthResult(None, None)
    return GirthResult(w.length, w)


def girth_bruteforce(g: MixedGraph, max_len: int | None = None) -> GirthResult:
    """Independent oracle: enumerate vertex sequences per the definition.

    Intended for small graphs.  Raises CapExceededError when no cycle of
    length <= max_len exists but max_len < n leaves longer cycles
    unexplored; with max_len >= n a miss genuinely means acyclic.
    """
    cap = g.n if max_len is None else min(max_len, g.n)
    best: list[CycleWitness | None] = [None]

    def options(x: int) -> list[tuple[int, str]]:
        opts = [(w, ARC) for w in g.out_neighbors[x]]
        opts += [(w, EDGE) for w in g.edge_neighbors[x]]
        opts.sort(key=lambda t: (t[0], t[1] != ARC))
        return opts

    def extend(
        s: int,
        path: list[int],
        steps: list[str],
        used: set[tuple[str, Pair]],
    ) -> None:
        x = path[-1]
        limit = cap if best[0] is None else min(cap, best[0].length - 1)
        for w, kind in options(x):
            key = (
                (EDGE, _normalize_edge(x, w)) if kind == EDGE else (ARC, (x, w))
            )
            if key in used:
                continue
            if w == s:
                length = len(path)
                if length >= 2 and length <= limit:
                    best[0] = CycleWitness(
                        tuple(path + [s]), tuple(steps + [kind])
                    )
                continue
            if w in path:
                continue
            if len(path) > limit - 1:
                continue
            path.append(w)
            steps.append(kind)
            used.add(key)
            extend(s, path, steps, used)
            used.discard(key)
            steps.pop()
            path.pop()

    for s in range(g.n):
        extend(s, [s], [], set())
        if best[0] is not None and best[0].length == 2:
            break
    if best[0] is not None:
        return GirthResult(best[0].length, best[0])
    if cap >= g.n:
        return GirthResult(None, None)
    raise CapExceededError(f"no cycle of length <= {cap} found; longer ones unexplored")


def _shortest_cycle(g: MixedGraph) -> CycleWitness | None:
    """Shortest cycle through any incidence, or None when acyclic.
    Deterministic: the starts, one per arc (u,v) and one per edge
    {u,v} with u < v, are scanned in (u, v) order with an arc ahead of
    an edge, and the witness is traced for the first of least length,
    visiting neighbors in ascending order."""
    starts = sorted([(u, v, False) for u, v in g.arcs]
                    + [(u, v, True) for u, v in g.edges])
    steps = [0] * g.n  # bit w of steps[x]: x -> w is an arc or an edge
    for u, v in g.arcs:
        steps[u] |= 1 << v
    for u, v in g.edges:
        steps[u] |= 1 << v
        steps[v] |= 1 << u
    best = None
    limit = g.n  # the longest cycle still worth finding
    for u, v, edge in starts:
        if limit < 2:
            break
        target = 1 << u
        reached = 1 << v
        frontier = steps[v]
        if edge and (v, u) not in g.arcs:
            frontier &= ~target
        length = 2  # of the cycle that closes at this frontier
        while frontier and length <= limit:
            if frontier & target:
                best, limit = (u, v, edge), length - 1
                break
            reached |= frontier
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= steps[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~reached
            length += 1
    if best is None:
        return None
    u, v, edge = best
    path_vertices, path_steps = _bfs_path(g, v, u, edge, limit)
    return CycleWitness((u, *path_vertices), (EDGE if edge else ARC, *path_steps))


def _bfs_path(
    g: MixedGraph, src: int, dst: int, ban_start_edge: bool, cap: int
) -> tuple[tuple[int, ...], tuple[str, ...]] | None:
    """Shortest src->dst path of length <= cap in the arc-augmented
    digraph of g, never traversing the edge {src, dst} when
    ban_start_edge; returns (vertices, steps) with vertices starting at
    src and ending at dst.  Each vertex's steps are taken in (neighbor,
    kind) order, an arc ahead of an edge ("arc" < "edge").

    Breadth-first order never steps back into src and stops on reaching
    dst, so the only way to cross the banned edge is src -> dst."""
    parent = [-1] * g.n
    step = [EDGE] * g.n
    parent[src] = src
    frontier = [src]
    for _ in range(cap):
        nxt = []
        for x in frontier:
            for w, kind in sorted([(w, ARC) for w in g.out_neighbors[x]]
                                  + [(w, EDGE) for w in g.edge_neighbors[x]]):
                if parent[w] != -1:
                    continue
                if w == dst:
                    if ban_start_edge and x == src and kind == EDGE:
                        continue
                    verts = [dst, x]
                    steps = [kind]
                    while x != src:
                        steps.append(step[x])
                        x = parent[x]
                        verts.append(x)
                    verts.reverse()
                    steps.reverse()
                    return tuple(verts), tuple(steps)
                parent[w] = x
                step[w] = kind
                nxt.append(w)
        frontier = nxt
    return None
