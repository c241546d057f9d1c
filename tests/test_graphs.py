import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixedcages import (
    DuplicateError,
    GraphError,
    LengthMismatchError,
    MixedGraph,
    OutOfRangeError,
    Permutation,
    SelfLoopError,
    apply_permutation,
    degree_profile,
    new_graph,
)
from mixedcages.constructions import rotation_automorphism

from conftest import check_result_record, random_mixed_graph


def test_new_graph_smallest_cases():
    g = new_graph(2, edges=[(0, 1)])
    assert g.n == 2 and len(g.edges) == 1 and len(g.arcs) == 0

    g = new_graph(2, arcs=[(0, 1), (1, 0)])
    assert len(g.arcs) == 2 and len(g.edges) == 0


def test_new_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        new_graph(1, edges=[(0, 0)])
    with pytest.raises(SelfLoopError):
        new_graph(3, arcs=[(2, 2)])


def test_new_graph_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        new_graph(2, edges=[(0, 2)])
    with pytest.raises(OutOfRangeError):
        new_graph(2, arcs=[(-1, 0)])


def test_new_graph_rejects_duplicates():
    with pytest.raises(DuplicateError):
        new_graph(2, edges=[(0, 1), (1, 0)])  # same edge, either orientation
    with pytest.raises(DuplicateError):
        new_graph(2, arcs=[(0, 1), (0, 1)])
    # antiparallel arcs are distinct, not duplicates
    new_graph(2, arcs=[(0, 1), (1, 0)])


@pytest.mark.parametrize(
    "n, edges, arcs",
    [
        (12.0, [], []),
        ("3", [], []),
        (True, [], []),
        (4, [(1.0, 2)], []),
        (4, [(0, 3.5)], []),
        (4, [], [(0, 1.0)]),
        (4, [(True, 2)], []),
        (4, [], [(0, "1")]),
    ],
    ids=["order-float", "order-string", "order-bool", "edge-float",
         "edge-fraction", "arc-float", "edge-bool", "arc-string"],
)
def test_new_graph_rejects_non_integers(n, edges, arcs):
    with pytest.raises(GraphError, match="integer"):
        new_graph(n, edges, arcs)


def test_new_graph_takes_numpy_integers_as_ints():
    g = new_graph(np.int64(3), edges=[(np.int32(0), np.int64(1))],
                  arcs=[(np.uint8(1), 2)])
    assert g == new_graph(3, edges=[(0, 1)], arcs=[(1, 2)])
    assert type(g.n) is int
    assert {type(x) for pair in g.edges | g.arcs for x in pair} == {int}


def test_edge_and_arc_may_coexist():
    g = new_graph(2, edges=[(0, 1)], arcs=[(0, 1)])
    assert g.has_edge(1, 0) and g.has_arc(0, 1) and not g.has_arc(1, 0)


def test_degree_profile_directed_triangle():
    g = new_graph(3, arcs=[(0, 1), (1, 2), (2, 0)])
    p = degree_profile(g)
    assert p.deg == (0, 0, 0)
    assert p.outdeg == (1, 1, 1) and p.indeg == (1, 1, 1)
    assert p.regular == (0, 1)


def test_degree_profile_path_not_regular():
    p = degree_profile(new_graph(3, edges=[(0, 1)]))
    assert p.deg == (1, 1, 0)
    assert p.regular is None


def test_degree_profile_needs_equal_in_degrees():
    # every out-degree is 1, but vertex 1 has in-degree 2 and vertex 0 none
    p = degree_profile(new_graph(3, arcs=[(0, 1), (1, 2), (2, 1)]))
    assert p.outdeg == (1, 1, 1) and p.indeg == (0, 2, 1)
    assert p.regular is None


def test_degree_profile_is_kept_per_graph_object():
    """The profile is computed once per graph object and kept on it: an
    equal graph built apart, or another graph of the same order, gets
    its own, and the graph is freed with its profile."""
    g = new_graph(3, arcs=[(0, 1), (1, 2), (2, 0)])
    p = degree_profile(g)
    assert degree_profile(g) is p
    twin = MixedGraph(g.n, g.edges, g.arcs)
    assert "degree_profile" not in vars(twin)
    assert degree_profile(twin) == p and degree_profile(twin) is not p
    other = new_graph(3, edges=[(0, 1)])
    assert degree_profile(other).regular is None and p.regular == (0, 1)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_degree_profile_g30(g30):
    assert degree_profile(g30).regular == (3, 1)


def test_degree_sums_on_random_graphs():
    rng = random.Random(42)
    for _ in range(200):
        g = random_mixed_graph(rng)
        p = degree_profile(g)
        assert sum(p.deg) == 2 * len(g.edges)
        assert sum(p.outdeg) == sum(p.indeg) == len(g.arcs)


def test_apply_identity():
    g = new_graph(4, edges=[(0, 1)], arcs=[(2, 3)])
    assert apply_permutation(g, Permutation.identity(4)) == g


def test_apply_swap_fixes_directed_two_cycle():
    g = new_graph(2, arcs=[(0, 1), (1, 0)])
    assert apply_permutation(g, Permutation((1, 0))) == g


def test_rotation_fixes_g30(g30):
    assert apply_permutation(g30, rotation_automorphism()) == g30


def test_apply_length_mismatch():
    g = new_graph(3, edges=[(0, 1)])
    with pytest.raises(LengthMismatchError):
        apply_permutation(g, Permutation((1, 0)))


@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_relabel_composition_law(n, rnd):
    rng = random.Random(rnd.randint(0, 2**31))
    g = random_mixed_graph(rng, n_min=n, n_max=n)
    p = list(range(n))
    q = list(range(n))
    rng.shuffle(p)
    rng.shuffle(q)
    p, q = Permutation(tuple(p)), Permutation(tuple(q))
    assert apply_permutation(apply_permutation(g, p), q) == apply_permutation(
        g, q @ p
    )


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0))
    with pytest.raises(ValueError):
        Permutation((1, 2))


def test_permutation_inverse_and_order():
    p = Permutation((1, 2, 0, 4, 3))
    assert (p @ p.inverse()).is_identity()
    assert p.order() == 6  # lcm(3, 2)
    assert p.cycle_notation() == "(0 1 2)(3 4)"
    assert Permutation.identity(3).cycle_notation() == "()"


def test_degree_profile_is_an_immutable_tuple():
    check_result_record(
        degree_profile(new_graph(2, [], [(0, 1), (1, 0)])),
        "DegreeProfile(deg=(0, 0), outdeg=(1, 1), indeg=(1, 1), "
        "regular=(0, 1))")
