import gc
import hashlib
import itertools
import json
import math
import random
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mixedcages import (
    Permutation,
    SearchSpec,
    TooLargeError,
    apply_permutation,
    automorphism_group,
    canonical_form,
    degree_profile,
    group_fingerprint,
    is_isomorphic,
    new_graph,
    search_order,
)
from mixedcages import isomorphism
from mixedcages.graphs import MixedGraph
from mixedcages.matrixio import read_adjacency_matrix
from mixedcages.constructions import (
    build_g30,
    rotation_automorphism,
    row_transposition_automorphism,
)

from conftest import check_result_record, mixed_graphs, random_mixed_graph


def brute_force_automorphism_count(g):
    """Oracle: try all n! permutations."""
    return sum(
        1
        for p in itertools.permutations(range(g.n))
        if apply_permutation(g, Permutation(p)) == g
    )


def _fresh(g):
    """An equal copy of g: a distinct object, with nothing stored on it."""
    return MixedGraph(g.n, g.edges, g.arcs)


def _relabeled(g, rng):
    p = list(range(g.n))
    rng.shuffle(p)
    return apply_permutation(g, Permutation(tuple(p)))


def petersen():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    return new_graph(10, edges)


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(8)
    for _ in range(150):
        g = random_mixed_graph(rng, n_min=2)
        base = canonical_form(g).encoding
        p = list(range(g.n))
        rng.shuffle(p)
        h = apply_permutation(g, Permutation(tuple(p)))
        assert canonical_form(h).encoding == base


def test_canonical_permutation_realizes_encoding():
    rng = random.Random(12)
    for _ in range(50):
        g = random_mixed_graph(rng, n_min=2)
        cf = canonical_form(g)
        relabeled = apply_permutation(g, cf.permutation)
        assert canonical_form(relabeled).encoding == cf.encoding


def test_arc_direction_distinguishes():
    directed = new_graph(3, arcs=[(0, 1), (1, 2), (2, 0)])
    undirected = new_graph(3, edges=[(0, 1), (1, 2), (2, 0)])
    assert canonical_form(directed).encoding != canonical_form(undirected).encoding


def test_invariant_distinguished_pairs_get_different_forms():
    # graphs already separated by counts, degree multisets, or girth
    # must also separate under the canonical encoding
    from mixedcages import degree_profile, girth

    rng = random.Random(51)
    pairs_checked = 0
    while pairs_checked < 60:
        g = random_mixed_graph(rng, n_min=3, n_max=8)
        h = random_mixed_graph(rng, n_min=g.n, n_max=g.n)
        pg, ph = degree_profile(g), degree_profile(h)
        distinguished = (
            len(g.edges) != len(h.edges)
            or len(g.arcs) != len(h.arcs)
            or sorted(zip(pg.deg, pg.outdeg, pg.indeg))
            != sorted(zip(ph.deg, ph.outdeg, ph.indeg))
            or girth(g).girth != girth(h).girth
        )
        if not distinguished:
            continue
        pairs_checked += 1
        assert canonical_form(g).encoding != canonical_form(h).encoding


def test_is_isomorphic_with_witness():
    rng = random.Random(4)
    for _ in range(50):
        g = random_mixed_graph(rng, n_min=2, n_max=9)
        p = list(range(g.n))
        rng.shuffle(p)
        h = apply_permutation(g, Permutation(tuple(p)))
        verdict, witness = is_isomorphic(g, h)
        assert verdict
        assert apply_permutation(g, witness) == h


def test_non_isomorphic_detected(g30):
    smaller = new_graph(
        30, sorted(g30.edges)[:-1], sorted(g30.arcs)
    )
    verdict, witness = is_isomorphic(g30, smaller)
    assert not verdict and witness is None


def test_g30_isomorphic_to_its_converse(g30):
    # measured once and recorded: reversing every arc yields an
    # isomorphic mixed graph
    converse = new_graph(30, sorted(g30.edges), [(v, u) for u, v in g30.arcs])
    verdict, witness = is_isomorphic(g30, converse)
    assert verdict
    assert apply_permutation(g30, witness) == converse


@st.composite
def cycle_and_matchings(draw, max_n: int = 12):
    """A directed Hamilton cycle plus the edges of one or two perfect
    matchings: (nearly) regular mixed graphs, whose refinement often
    stops at cells that are not orbits, so that a labeling search's
    first leaf need not carry its least encoding."""
    n = 2 * draw(st.integers(2, max_n // 2))
    edges = set()
    for _ in range(draw(st.integers(1, 2))):
        p = draw(st.permutations(range(n)))
        edges.update(tuple(sorted(p[i:i + 2])) for i in range(0, n, 2))
    s = draw(st.permutations(range(n)))
    return new_graph(n, edges, [(s[i - 1], s[i]) for i in range(n)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_isomorphic_agrees_with_canonical_encodings(data):
    """The verdict is the equality of the canonical encodings, and a
    positive verdict's witness maps g onto h.  Half the pairs relabel g;
    the others draw h from g's strategy, and two cycle-and-matching
    graphs of one order often share their degree sequence."""
    graphs = data.draw(
        st.sampled_from((mixed_graphs(), cycle_and_matchings())))
    g = data.draw(graphs, label="g")
    if data.draw(st.booleans(), label="relabel"):
        p = data.draw(st.permutations(range(g.n)), label="permutation")
        h = apply_permutation(g, Permutation(tuple(p)))
    else:
        h = data.draw(graphs, label="h")
    verdict, witness = is_isomorphic(g, h)
    same = canonical_form(g).encoding == canonical_form(h).encoding
    assert verdict == same
    if verdict:
        assert apply_permutation(g, witness) == h
    else:
        assert witness is None


@pytest.fixture(scope="module")
def classes_3_1_4_at_12():
    """The 29 pairwise non-isomorphic (3,1,4)-graphs of order 12."""
    result = search_order(SearchSpec(r=3, g=4, n=12, mode="enumerate"))
    assert len(result.witnesses) == 29
    return result.witnesses


def test_is_isomorphic_on_every_pair_of_classes(classes_3_1_4_at_12):
    """Every ordered pair of the 29 classes, each in a seeded relabeling.
    All share one degree sequence, so a negative verdict needs g's
    labeling search to run to exhaustion without meeting h's leaf."""
    rng = random.Random(26)
    for i, a in enumerate(classes_3_1_4_at_12):
        for j, b in enumerate(classes_3_1_4_at_12):
            g, h = _relabeled(a, rng), _relabeled(b, rng)
            verdict, witness = is_isomorphic(g, h)
            assert verdict == (i == j), (i, j)
            if verdict:
                assert apply_permutation(g, witness) == h


def test_is_isomorphic_stops_at_the_first_target_leaf(g30):
    """h's search stops at its first leaf and g's at the first leaf with
    that encoding: fewer refinements than labeling both canonically.  A
    negative verdict costs g's whole search plus h's first path; the
    negative here swaps two edges of g30, {0,5},{1,6} -> {0,6},{1,5},
    which keeps every degree."""
    rng = random.Random(30)
    p = list(range(30))
    rng.shuffle(p)
    relabeled = apply_permutation(g30, Permutation(tuple(p)))
    edges = (g30.edges - {(0, 5), (1, 6)}) | {(0, 6), (1, 5)}
    switched = new_graph(30, edges, g30.arcs)
    real = isomorphism._refine_cells
    calls = []

    def counted(g, cells):
        calls.append(1)
        return real(g, cells)

    # fresh objects, so that every search refines its first path too
    for h, expected in ((relabeled, True), (switched, False)):
        with mock.patch.object(isomorphism, "_refine_cells", counted):
            calls.clear()
            verdict, witness = is_isomorphic(_fresh(g30), _fresh(h))
            test_calls = len(calls)
            calls.clear()
            same = (canonical_form(_fresh(g30)).encoding
                    == canonical_form(_fresh(h)).encoding)
            labeling_calls = len(calls)
        assert verdict == same == expected
        if verdict:
            assert apply_permutation(g30, witness) == h
        assert test_calls < labeling_calls


def test_aut_counts_match_brute_force():
    rng = random.Random(16)
    for _ in range(30):
        g = random_mixed_graph(rng, n_min=1, n_max=5)
        assert automorphism_group(g).order == brute_force_automorphism_count(g)


def test_aut_triangle_is_s3():
    group = automorphism_group(new_graph(3, edges=[(0, 1), (1, 2), (2, 0)]))
    assert group.order == 6
    fp = group_fingerprint(group)
    assert not fp.abelian and fp.name == "S3"


def test_aut_directed_triangle_is_z3():
    group = automorphism_group(new_graph(3, arcs=[(0, 1), (1, 2), (2, 0)]))
    assert group.order == 3


def test_aut_directed_ten_cycle_is_z10():
    g = new_graph(10, arcs=[(i, (i + 1) % 10) for i in range(10)])
    group = automorphism_group(g)
    fp = group_fingerprint(group)
    assert group.order == 10 and fp.abelian and fp.max_element_order == 10
    assert fp.name == "Z10"


def test_aut_petersen():
    assert automorphism_group(petersen()).order == 120


def test_aut_symmetric_shortcuts():
    assert automorphism_group(new_graph(6)).order == 720
    k4 = new_graph(4, edges=[(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert automorphism_group(k4).order == 24


def test_aut_generators_validate():
    rng = random.Random(77)
    for _ in range(20):
        g = random_mixed_graph(rng, n_min=2, n_max=8)
        group = automorphism_group(g)
        for p in group.generators:
            assert apply_permutation(g, p) == g
        assert len(group.elements(cap=40320)) == group.order


def test_aut_g30(g30):
    group = automorphism_group(g30)
    assert group.order == 20
    elements = {p.image for p in group.elements()}
    assert len(elements) == 20  # closure agrees with the orbit product
    assert rotation_automorphism().image in elements
    assert row_transposition_automorphism().image in elements
    fp = group_fingerprint(group)
    assert fp.abelian and fp.max_element_order == 10
    assert fp.name == "Z2 x Z10"


def test_fingerprint_cap():
    group = automorphism_group(new_graph(7))  # S7, order 5040
    with pytest.raises(TooLargeError):
        group_fingerprint(group, cap=1000)


def test_aut_petersen_labeling_robust():
    # the search discovers its automorphisms and first path in a
    # labeling-dependent order; every labeling must give the same
    # verified group
    base = petersen()
    rng = random.Random(2024)
    for _ in range(20):
        p = list(range(10))
        rng.shuffle(p)
        g = apply_permutation(base, Permutation(tuple(p)))
        group = automorphism_group(g)
        assert group.order == 120
        for gen in group.generators:
            assert apply_permutation(g, gen) == g


def _empty_and_complete(n):
    return (
        new_graph(n),
        new_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]),
    )


@pytest.mark.parametrize("n", range(7))
def test_symmetric_shortcut_matches_general_path(n):
    # the empty and complete graphs take the one labeling search like
    # every other graph and get the full symmetric group
    for g in _empty_and_complete(n):
        group = automorphism_group(g)
        assert group.order == math.factorial(n)
        assert len(group.elements(cap=math.factorial(n))) == group.order


def test_order_zero_graph_on_general_path():
    # the labeling search starts from no cells and reaches its one leaf
    g = new_graph(0)
    assert canonical_form(g).encoding == b""
    assert is_isomorphic(g, new_graph(0)) == (True, Permutation(()))
    group = automorphism_group(g)
    assert group.order == 1 and group.generators == ()


def test_order_30_symmetric_graphs_jump_back_to_the_first_path():
    """A leaf equivalent to the first leaf sends the search back to the
    level where its path left the first path.  On the empty and complete
    graphs of order 30 each of the first path's 29 levels then adds one
    leaf to the first, 30 in all, and the group is still all of S30."""
    real = isomorphism._encode
    leaves = []

    def counted(g, pos):
        leaves.append(pos)
        return real(g, pos)

    for g in _empty_and_complete(30):
        leaves.clear()
        with mock.patch.object(isomorphism, "_encode", counted):
            canonical_form(g)
        assert len(leaves) == 30
        group = automorphism_group(g)
        assert group.order == math.factorial(30)
        assert group.generators
        for p in group.generators:
            assert apply_permutation(g, p) == g


def _labelled_digraph(g):
    """networkx DiGraph with each edge as two opposite arcs labelled "e"
    and each arc as one arc labelled "a"; an arc and an edge on the
    same ordered pair share one arc labelled "ae"."""
    nx = pytest.importorskip("networkx")
    d = nx.DiGraph()
    d.add_nodes_from(range(g.n))
    labels = {}
    for u, v in g.edges:
        labels[(u, v)] = labels[(v, u)] = "e"
    for u, v in g.arcs:
        labels[(u, v)] = "a" + labels.get((u, v), "")
    for (u, v), label in labels.items():
        d.add_edge(u, v, label=label)
    return d


def _same_label(a, b):
    return a["label"] == b["label"]


def test_aut_order_matches_networkx_oracle():
    pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    rng = random.Random(303)
    for _ in range(60):
        g = random_mixed_graph(rng, n_min=1, n_max=8)
        d = _labelled_digraph(g)
        count = sum(
            1 for _ in DiGraphMatcher(d, d, edge_match=_same_label).isomorphisms_iter()
        )
        assert automorphism_group(g).order == count


def test_is_isomorphic_matches_networkx_oracle():
    pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    rng = random.Random(304)
    agree = {True: 0, False: 0}
    for _ in range(120):
        g = random_mixed_graph(rng, n_min=1, n_max=8)
        if rng.random() < 0.5:
            p = list(range(g.n))
            rng.shuffle(p)
            h = apply_permutation(g, Permutation(tuple(p)))
        else:
            h = random_mixed_graph(rng, n_min=g.n, n_max=g.n)
        matcher = DiGraphMatcher(
            _labelled_digraph(g), _labelled_digraph(h), edge_match=_same_label
        )
        verdict, _ = is_isomorphic(g, h)
        assert verdict == matcher.is_isomorphic()
        agree[verdict] += 1
    assert agree[True] and agree[False]


# ---------------------------------------------------------------------------
# reference oracle: the refinement as it was before it worked cell by
# cell, re-ranking every vertex by a full signature each round


def _reference_refine(g, colors):
    n = g.n
    ncolors = len(set(colors))
    while True:
        sigs = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in g.edge_neighbors[v])),
                tuple(sorted(colors[w] for w in g.out_neighbors[v])),
                tuple(sorted(colors[w] for w in g.in_neighbors[v])),
            )
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == ncolors:
            return colors
        ncolors = len(rank)


def _reference_refine_cells(g, colors):
    colors = _reference_refine(g, colors)
    cells = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return colors, cells


def _coloring(cells, n):
    colors = [0] * n
    for i, cell in enumerate(cells):
        for v in cell:
            colors[v] = i
    return colors


def _individualize(colors, v):
    """Individualization on colors, independent of the search's cells:
    v takes a color of its own, just below the rest of its cell."""
    return [c * 2 + (0 if u == v else 1) for u, c in enumerate(colors)]


@settings(max_examples=300, deadline=None)
@given(mixed_graphs())
def test_labeling_and_group_match_reference_refine(g):
    cf = canonical_form(g)
    group = automorphism_group(g)
    calls = []

    def reference(g, cells):
        calls.append(cells)
        return _reference_refine_cells(g, _coloring(cells, g.n))[1]

    # every search node refines through _refine_cells, the root's too
    # (from the degree cells); g keeps its first path, so the patched
    # searches run on fresh copies, which refine it again
    with mock.patch.object(isomorphism, "_refine_cells", reference):
        assert cf == canonical_form(_fresh(g))
        assert group == automorphism_group(_fresh(g))
    assert calls


def _refined_nodes(g):
    """(input cells, refined cells) of every node of one labeling search."""
    nodes = []
    real = isomorphism._refine_cells

    def spy(g, cells):
        out = real(g, cells)
        nodes.append((cells, out))
        return out

    with mock.patch.object(isomorphism, "_refine_cells", spy):
        isomorphism._ir_search(g)
    return nodes


def _assert_nodes_refine_like_reference(g):
    (_, root), *children = _refined_nodes(g)
    colors, cells = _reference_refine_cells(g, [0] * g.n)
    assert root == cells
    refined = [(colors, cells)]
    for cells_in, out in children:
        # find the node and vertex whose individualization this child is
        parents = [
            (colors, v)
            for colors, cells in refined
            for i, cell in enumerate(cells)
            if len(cell) > 1
            for v in cell
            if cells[:i] + [[v], [u for u in cell if u != v]] + cells[i + 1:]
            == cells_in
        ]
        assert parents
        colors, cells = _reference_refine_cells(g, _individualize(*parents[0]))
        assert out == cells
        refined.append((colors, cells))


@settings(max_examples=300, deadline=None)
@given(mixed_graphs())
def test_search_nodes_refine_like_reference(g):
    _assert_nodes_refine_like_reference(g)


# sha256 of canonical_form(g).encoding, recorded before the refinement
# was rewritten.  Checkpoints store no encodings (a resume labels its
# witnesses again), but the encoding names a class for library callers,
# who may keep it between versions, so a rewrite must keep the bytes
PINNED_ENCODINGS = {
    "g30": "ceedebe767c179ad45fd408d9a6baa09762152b3ce23d6a4d95be7e7f017ac99",
    "petersen": "673ea83e9622876b1c85e448a6d934b2e3900b6c6a14aa27c4895da0f5216a41",
    "c30": "2ea7c18c76f16f6174c13f886b0a24e3ef51711879827983d2cdd5690172d519",
    "class00": "4c4c0ae4c243097b40c250592290daf271d109ba1d22d20278a9f7490afcee0d",
}


def _pinned_graph(name):
    if name == "g30":
        return build_g30()
    if name == "petersen":
        return petersen()
    if name == "c30":
        return new_graph(30, arcs=[(i, (i + 1) % 30) for i in range(30)])
    # the first of the 29 classes of the (3,1,4) enumeration at order 12
    edges = [(0, 3), (0, 5), (0, 7), (1, 4), (1, 6), (1, 8), (2, 5), (2, 7),
             (2, 9), (3, 8), (3, 10), (4, 9), (4, 11), (5, 10), (6, 9),
             (6, 11), (7, 10), (8, 11)]
    return new_graph(12, edges, arcs=[(i, (i + 1) % 12) for i in range(12)])


@pytest.mark.parametrize("name", sorted(PINNED_ENCODINGS))
def test_canonical_encoding_is_pinned(name):
    encoding = canonical_form(_pinned_graph(name)).encoding
    assert hashlib.sha256(encoding).hexdigest() == PINNED_ENCODINGS[name]


@pytest.mark.parametrize("name", sorted(PINNED_ENCODINGS))
def test_pinned_search_nodes_refine_like_reference(name):
    _assert_nodes_refine_like_reference(_pinned_graph(name))


# ---------------------------------------------------------------------------
# the first path, refined once per graph object and kept on it

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _answers(g, *hs):
    """g's canonical form, group and degree profile, and its isomorphism
    test against each of hs."""
    return (canonical_form(g), automorphism_group(g), degree_profile(g),
            *(is_isomorphic(g, h) for h in hs))


def _assert_cold_and_warm_agree(g, *hs):
    """Each answer on fresh copies, which compute their facts (first
    path, degree profile and key, first leaf), is the answer on g and hs
    twice: the first round stores g's and hs' facts and the second only
    reads them.  Returns the answers."""
    cold = (canonical_form(_fresh(g)), automorphism_group(_fresh(g)),
            degree_profile(_fresh(g)),
            *(is_isomorphic(_fresh(g), _fresh(h)) for h in hs))
    for _ in range(2):
        assert _answers(g, *hs) == cold
    return cold


def test_cold_and_warm_searches_agree_on_benchmark_graphs():
    """The 33 graphs of the benchmark, each in its file labeling and 3
    seeded relabelings, against the file labeling and against its
    partner: the same bytes cold and warm, and the expected answers."""
    entries = json.loads(
        (PERFBENCH / "expected" / "graphs.json").read_text())["graphs"]
    graphs = {name: read_adjacency_matrix((PERFBENCH / e["file"]).read_text())
              for name, e in entries.items()}
    assert len(graphs) == 33
    rng = random.Random(33)
    for name, e in entries.items():
        base = graphs[name]
        partners = [graphs[e["partner"]]] if e["partner"] else []
        for g in [_fresh(base)] + [_relabeled(base, rng) for _ in range(3)]:
            _, group, _, (same, witness), *others = _assert_cold_and_warm_agree(
                g, base, *partners)
            assert group.order == e["aut_order"], name
            assert same and apply_permutation(g, witness) == base, name
            assert others == [(False, None)] * len(partners), name


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cold_and_warm_searches_agree_on_mixed_graphs(data):
    g = data.draw(mixed_graphs(), label="g")
    if data.draw(st.booleans(), label="relabel"):
        p = data.draw(st.permutations(range(g.n)), label="permutation")
        h = apply_permutation(g, Permutation(tuple(p)))
    else:
        h = data.draw(mixed_graphs(), label="h")
    _assert_cold_and_warm_agree(g, h)


def _refine_inputs(run):
    """The cells that each _refine_cells call gets while run() runs."""
    inputs = []
    real = isomorphism._refine_cells

    def spy(g, cells):
        inputs.append(cells)
        return real(g, cells)

    with mock.patch.object(isomorphism, "_refine_cells", spy):
        run()
    return inputs


def _first_path_inputs(g):
    """The cells that refine to the nodes of g's first path."""
    first = isomorphism._first_path(g)
    return [isomorphism._degree_cells(g)] + [
        isomorphism._individualize(cells, cells.index(cell), cell[0])
        for cells, (_, cell) in zip(first.partitions, first.levels)
    ]


@pytest.mark.parametrize("name", sorted(PINNED_ENCODINGS))
@pytest.mark.parametrize("call", ["canonical_form", "automorphism_group",
                                  "is_isomorphic"])
def test_warm_search_refines_only_off_the_first_path(call, name):
    """A search of an object whose first path is stored refines no node
    of it, and refines exactly the nodes that a cold search refines
    besides it."""
    g = _pinned_graph(name)
    h = _relabeled(g, random.Random(name))
    run = {
        "canonical_form": lambda g, h: canonical_form(g),
        "automorphism_group": lambda g, h: automorphism_group(g),
        "is_isomorphic": is_isomorphic,
    }[call]
    cold = _refine_inputs(lambda: run(_fresh(g), _fresh(h)))
    run(g, h)
    warm = _refine_inputs(lambda: run(g, h))
    on_path = _first_path_inputs(g)
    if call == "is_isomorphic":
        on_path += _first_path_inputs(h)
    assert not [cells for cells in warm if cells in on_path]
    assert len(cold) == len(warm) + len(on_path)


def test_an_equal_graph_object_refines_from_scratch():
    g = build_g30()
    canonical_form(g)
    h = _fresh(g)
    assert h == g and h is not g
    warm = _refine_inputs(lambda: canonical_form(g))
    cold = _refine_inputs(lambda: canonical_form(h))
    assert len(cold) == len(warm) + len(isomorphism._first_path(g).partitions)
    assert isomorphism._first_path(h) == isomorphism._first_path(g)
    assert isomorphism._first_path(h) is not isomorphism._first_path(g)
    # so does every other fact that is_isomorphic keeps
    facts = (degree_profile, isomorphism._degree_key, isomorphism._first_leaf)
    assert is_isomorphic(g, g)[0]
    assert not {fact.__name__ for fact in facts} & set(vars(h))
    assert is_isomorphic(h, h) == is_isomorphic(g, g)
    for fact in facts:
        assert fact(h) == fact(g) and fact(h) is not fact(g)


def test_first_path_is_released_with_its_graph():
    g = build_g30()
    assert is_isomorphic(g, g)[0] and automorphism_group(g).order == 20
    assert {"_first_path", "degree_profile", "_degree_key",
            "_first_leaf"} <= set(vars(g))
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_isomorphism_records_are_immutable_tuples():
    tri = new_graph(3, [], [(0, 1), (1, 2), (2, 0)])
    check_result_record(
        canonical_form(tri),
        r"CanonicalForm(encoding=b'\x00\x00\x02\x02\x00\x00\x00\x02\x00', "
        "permutation=Permutation(image=(0, 2, 1)))")
    group = automorphism_group(tri)
    check_result_record(group, "AutGroup(n=3, generators=("
                               "Permutation(image=(2, 0, 1)),), order=3)")
    assert len(group.elements()) == 3
    check_result_record(group_fingerprint(group), "GroupFingerprint(order=3, "
                        "abelian=True, max_element_order=3, name='Z3')")
