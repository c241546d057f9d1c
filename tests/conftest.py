import pickle
import random

import pytest
from hypothesis import strategies as st

from mixedcages import MixedGraph, build_g30, new_graph


def random_mixed_graph(rng: random.Random, n_min: int = 1, n_max: int = 10) -> MixedGraph:
    """Random mixed graph with a spread of densities, including sparse
    and acyclic shapes that stress the slow-path oracles."""
    n = rng.randint(n_min, n_max)
    style = rng.random()
    if style < 0.15:  # arc-heavy
        edge_p, arc_p = 0.0, rng.uniform(0.1, 0.5)
    elif style < 0.3:  # edge-heavy
        edge_p, arc_p = rng.uniform(0.1, 0.6), 0.0
    elif style < 0.45:  # very sparse, often acyclic
        edge_p, arc_p = rng.uniform(0.0, 0.08), rng.uniform(0.0, 0.08)
    else:
        edge_p, arc_p = rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.4)
    edges = []
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_p:
                edges.append((i, j))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < arc_p:
                arcs.append((i, j))
    return new_graph(n, edges, arcs)


@st.composite
def mixed_graphs(draw, max_n: int = 10) -> MixedGraph:
    """Hypothesis strategy for mixed graphs on 1..max_n vertices in three
    shapes: unconstrained (2-cycles included), acyclic, and split into
    two parts with no incidence between them."""
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(("any", "acyclic", "disconnected")))
    arc_pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edge_pairs = [(u, v) for u, v in arc_pairs if u < v]
    if shape == "acyclic":
        # a forest in which each vertex hangs off at most one earlier
        # vertex, plus arcs only from a tree with a smaller root to one
        # with a larger root: no cycle can return to its start
        root = list(range(n))
        edge_pairs = []
        for v in range(1, n):
            parent = draw(st.none() | st.integers(0, v - 1))
            if parent is not None:
                edge_pairs.append((parent, v))
                root[v] = root[parent]
        edges = edge_pairs
        arc_pairs = [(u, v) for u, v in arc_pairs if root[u] < root[v]]
    else:
        if shape == "disconnected":
            cut = draw(st.integers(0, n))
            arc_pairs = [(u, v) for u, v in arc_pairs if (u < cut) == (v < cut)]
            edge_pairs = [(u, v) for u, v in edge_pairs if (u < cut) == (v < cut)]
        edges = draw(st.lists(st.sampled_from(edge_pairs), unique=True)) if edge_pairs else []
    arcs = draw(st.lists(st.sampled_from(arc_pairs), unique=True)) if arc_pairs else []
    return new_graph(n, edges, arcs)


def check_result_record(record, text: str, hashable: bool = True) -> None:
    """The contract of an immutable result record: its fields read by
    name, none can be assigned, an equal record hashes equal (a record
    holding a list is unhashable), a pickle round trip (as a worker
    pool makes) returns an equal record of the same type, and the repr
    names every field, ``text``."""
    assert repr(record) == text
    twin = type(record)(**{name: getattr(record, name)
                           for name in record._fields})
    assert twin == record
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record
    if hashable:
        assert hash(twin) == hash(back) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.fixture(scope="session")
def g30() -> MixedGraph:
    return build_g30()
