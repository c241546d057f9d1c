import importlib
import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mixedcages import (
    CapExceededError,
    CycleWitness,
    apply_permutation,
    girth,
    girth_bruteforce,
    new_graph,
    validate_witness,
    Permutation,
)
from mixedcages.graphs import GraphError

from conftest import check_result_record, mixed_graphs, random_mixed_graph

# `mixedcages.girth` as a package attribute is the function
girth_module = importlib.import_module("mixedcages.girth")


def test_single_edge_has_no_cycle():
    # returning along the only edge would reuse it
    assert girth(new_graph(2, edges=[(0, 1)])).girth is None


def test_edge_plus_arc_is_two_cycle():
    res = girth(new_graph(2, edges=[(0, 1)], arcs=[(0, 1)]))
    assert res.girth == 2
    assert sorted(res.witness.steps) == ["arc", "edge"]


def test_antiparallel_arcs_are_two_cycle():
    res = girth(new_graph(2, arcs=[(0, 1), (1, 0)]))
    assert res.girth == 2
    assert res.witness.steps == ("arc", "arc")


def test_undirected_triangle():
    assert girth(new_graph(3, edges=[(0, 1), (1, 2), (2, 0)])).girth == 3


def test_directed_ten_cycle():
    g = new_graph(10, arcs=[(i, (i + 1) % 10) for i in range(10)])
    assert girth(g).girth == 10


def test_g30_girth_is_six(g30):
    res = girth(g30)
    assert res.girth == 6
    validate_witness(g30, res.witness)


def test_empty_graph_infinite():
    assert girth(new_graph(0)).girth is None
    assert girth(new_graph(5)).girth is None


def test_arcs_only_forward():
    # arc path 0->1->2 plus arc 0->2 gives no cycle (arcs are one-way)
    g = new_graph(3, arcs=[(0, 1), (1, 2), (0, 2)])
    assert girth(g).girth is None
    # reversing the chord closes a 3-cycle
    g = new_graph(3, arcs=[(0, 1), (1, 2), (2, 0)])
    assert girth(g).girth == 3


def test_bruteforce_basics():
    assert girth_bruteforce(new_graph(2, arcs=[(0, 1), (1, 0)])).girth == 2
    four = new_graph(4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    assert girth_bruteforce(four).girth == 4
    assert girth_bruteforce(new_graph(2, edges=[(0, 1)])).girth is None


def test_bruteforce_cap_semantics():
    four = new_graph(4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(CapExceededError):
        girth_bruteforce(four, max_len=3)
    assert girth_bruteforce(four, max_len=4).girth == 4
    # cap >= n makes a miss conclusive
    assert girth_bruteforce(new_graph(3, edges=[(0, 1)]), max_len=3).girth is None


def test_fast_matches_bruteforce_on_random_graphs():
    rng = random.Random(99)
    for _ in range(400):
        g = random_mixed_graph(rng)
        fast = girth(g)
        slow = girth_bruteforce(g)
        assert fast.girth == slow.girth, (sorted(g.edges), sorted(g.arcs))
        if fast.girth is not None:
            validate_witness(g, fast.witness)
            validate_witness(g, slow.witness)
            assert fast.witness.length == slow.witness.length == fast.girth


def test_witness_validation_rejects_junk(g30):
    with pytest.raises(GraphError):
        validate_witness(g30, CycleWitness((0, 1), ("edge",)))  # open walk
    with pytest.raises(GraphError):
        # vertices 0 and 3 are not adjacent in g30
        validate_witness(g30, CycleWitness((0, 3, 0), ("edge", "edge")))
    with pytest.raises(GraphError):
        # reusing the single edge twice
        validate_witness(
            new_graph(2, edges=[(0, 1)]),
            CycleWitness((0, 1, 0), ("edge", "edge")),
        )


def test_witness_validation_rejects_repeated_vertex():
    # two triangles through vertex 0, walked as one closed walk: no
    # incidence repeats, but vertex 0 does
    g = new_graph(5, edges=[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    with pytest.raises(GraphError, match="repeats a vertex"):
        validate_witness(g, CycleWitness((0, 1, 2, 0, 3, 4, 0), ("edge",) * 6))


def test_adding_incidences_never_increases_girth():
    rng = random.Random(17)
    for _ in range(60):
        g = random_mixed_graph(rng, n_min=4, n_max=8)
        base = girth(g).girth
        pairs = [(i, j) for i in range(g.n) for j in range(g.n) if i != j]
        u, v = pairs[rng.randrange(len(pairs))]
        if g.has_edge(u, v):
            continue
        bigger = new_graph(
            g.n, list(g.edges) + [(u, v)] if u < v else list(g.edges) + [(v, u)],
            list(g.arcs),
        )
        after = girth(bigger).girth
        if base is not None:
            assert after is not None and after <= base


def test_girth_is_permutation_invariant():
    rng = random.Random(23)
    for _ in range(60):
        g = random_mixed_graph(rng, n_min=2)
        p = list(range(g.n))
        rng.shuffle(p)
        h = apply_permutation(g, Permutation(tuple(p)))
        assert girth(g).girth == girth(h).girth


# ---------------------------------------------------------------------------
# reference oracle: the shortest-cycle search as it was before the
# per-vertex step options were built once per call, with one traced
# breadth-first search per starting incidence, and with both
# orientations of each edge unless one_orientation


def _reference_shortest_cycle(g, one_orientation=False):
    starts = [("arc", u, v) for u, v in g.arcs]
    for u, v in g.edges:
        starts.append(("edge", u, v))
        if not one_orientation:
            starts.append(("edge", v, u))
    starts = sorted(starts, key=lambda t: (t[1], t[2], t[0] != "arc"))
    best = None
    for kind0, u, v in starts:
        limit = g.n if best is None else best.length - 1
        if limit < 2:
            break
        banned = (min(u, v), max(u, v)) if kind0 == "edge" else None
        found = _reference_bfs_path(g, v, u, banned, limit - 1)
        if found is None:
            continue
        path_vertices, path_steps = found
        w = CycleWitness((u, *path_vertices), (kind0, *path_steps))
        if best is None or w.length < best.length:
            best = w
    return best


def _reference_bfs_path(g, src, dst, banned_edge, cap):
    if cap < 1:
        return None
    parent = {src: (-1, "")}
    frontier = deque([(src, 0)])
    while frontier:
        x, d = frontier.popleft()
        if d >= cap:
            break
        opts = [(w, "arc") for w in g.out_neighbors[x]]
        opts += [
            (w, "edge")
            for w in g.edge_neighbors[x]
            if banned_edge is None or (min(x, w), max(x, w)) != banned_edge
        ]
        opts.sort(key=lambda t: (t[0], t[1] != "arc"))
        for w, kind in opts:
            if w in parent:
                continue
            parent[w] = (x, kind)
            if w == dst:
                verts = [w]
                steps = []
                cur = w
                while cur != src:
                    prev, k = parent[cur]
                    steps.append(k)
                    verts.append(prev)
                    cur = prev
                verts.reverse()
                steps.reverse()
                return tuple(verts), tuple(steps)
            frontier.append((w, d + 1))
    return None


def _reference_shortest_two_cycle(g):
    """Direct scan for 2-cycles, as girth() ran it before the breadth-first
    search alone found them; returns the lexicographically first."""
    pairs = set()
    for u, v in g.arcs:
        if (v, u) in g.arcs or (min(u, v), max(u, v)) in g.edges:
            pairs.add((min(u, v), max(u, v)))
    if not pairs:
        return None
    a, b = min(pairs)
    first = "arc" if g.has_arc(a, b) else "edge"
    second = "arc" if g.has_arc(b, a) else "edge"
    return CycleWitness((a, b, a), (first, second))


@settings(max_examples=300, deadline=None)
@given(mixed_graphs())
def test_shortest_cycle_matches_reference(g):
    assert girth_module._shortest_cycle(g) == _reference_shortest_cycle(g)
    fast = girth(g)
    with mock.patch.object(girth_module, "_shortest_cycle", _reference_shortest_cycle):
        assert fast == girth(g)
    two = _reference_shortest_two_cycle(g)
    if two is not None:
        assert (fast.girth, fast.witness) == (2, two)


@st.composite
def graphs_with_two_cycles(draw):
    """Mixed graphs on 2..9 vertices plus antiparallel arcs and arcs that
    share a pair with an edge, in either direction."""
    g = draw(mixed_graphs(max_n=9).filter(lambda g: g.n >= 2))
    arcs = set(g.arcs)
    for u, v in draw(st.lists(st.sampled_from(sorted(g.arcs)), unique=True)
                     if g.arcs else st.just([])):
        arcs.add((v, u))
    for u, v in draw(st.lists(st.sampled_from(sorted(g.edges)), unique=True)
                     if g.edges else st.just([])):
        arcs.add((u, v) if draw(st.booleans()) else (v, u))
    return new_graph(g.n, g.edges, arcs)


@settings(max_examples=300, deadline=None)
@given(graphs_with_two_cycles())
def test_one_orientation_scan_matches_bruteforce_and_references(g):
    """The girth is brute force's, and the witness is the one that a
    traced search per starting incidence finds with one orientation of
    each edge, and with both: the first start of least length never
    walks an edge from its larger end, since the cycle it finds leaves
    its least vertex by a start that sorts earlier."""
    res = girth(g)
    assert res.girth == girth_bruteforce(g).girth
    assert res.witness == _reference_shortest_cycle(g, one_orientation=True)
    assert res.witness == _reference_shortest_cycle(g)
    if res.witness is not None:
        validate_witness(g, res.witness)
        assert res.witness.length == res.girth


def test_girth_records_are_immutable_tuples():
    res = girth(new_graph(2, [], [(0, 1), (1, 0)]))
    witness = "CycleWitness(vertices=(0, 1, 0), steps=('arc', 'arc'))"
    check_result_record(res.witness, witness)
    assert res.witness.length == 2
    check_result_record(res, f"GirthResult(girth=2, witness={witness})")
    check_result_record(girth(new_graph(2, [(0, 1)], [])),
                        "GirthResult(girth=None, witness=None)")
