import functools
import itertools
import json
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedcages import (
    CheckpointError,
    InconclusiveError,
    SearchSpec,
    arc_skeletons,
    canonical_form,
    degree_profile,
    determine_cage_number,
    girth,
    girth_bruteforce,
    new_graph,
    search_order,
    skeleton_group_order,
)
from mixedcages.search import (
    _CanonicityTracker,
    _SkeletonSearch,
    _is_lex_min_full,
    _skeleton_autos,
)


def partitions_oracle(n, min_part):
    """Independent recursive partition enumerator."""
    if n == 0:
        return [()]
    out = []
    for first in range(n, min_part - 1, -1):
        for rest in partitions_oracle(n - first, min_part):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


def test_skeletons_biject_with_partitions():
    for n, g in [(10, 3), (12, 4), (30, 6), (9, 2)]:
        skeletons = list(arc_skeletons(n, g))
        parts_seen = [s.parts for s in skeletons]
        assert parts_seen == sorted(set(parts_seen), reverse=True)
        assert sorted(parts_seen) == sorted(partitions_oracle(n, max(g, 2)))


def test_skeleton_stream_edges():
    assert [s.parts for s in arc_skeletons(10, 6)] == [(10,)]
    assert list(arc_skeletons(5, 6)) == []
    assert (10, 10, 10) in [s.parts for s in arc_skeletons(30, 6)]


def test_skeleton_arcs_are_directed_cycles():
    for skeleton in arc_skeletons(12, 4):
        g = new_graph(12, [], list(skeleton.arcs))
        profile = degree_profile(g)
        assert profile.regular == (0, 1)
        assert girth(g).girth == min(skeleton.parts)


def test_skeleton_group_orders():
    assert skeleton_group_order((10, 10, 10)) == 6000
    assert skeleton_group_order((30,)) == 30
    assert skeleton_group_order((6, 6, 6, 6, 6)) == 933120
    parts = (4, 4, 3)
    assert len(_skeleton_autos(parts)) == skeleton_group_order(parts)


def test_incremental_canonicity_matches_full_scan():
    rng = random.Random(6)
    parts = (4, 4)
    autos = _skeleton_autos(parts)
    tracker = _CanonicityTracker(autos)
    for _ in range(200):
        # random growing edge sequence in sorted batch order
        pairs = sorted(
            (i, j) for i in range(8) for j in range(i + 1, 8)
        )
        rng.shuffle(pairs)
        state = tracker.root()
        edges = []
        clock = 0
        for batch_size in (2, 2, 1):
            remaining = sorted(p for p in pairs if not edges or p > edges[-1])
            if len(remaining) < batch_size:
                break
            batch = tuple(sorted(rng.sample(remaining[:6], batch_size)))
            edges = sorted(edges + list(batch))
            res = tracker.child(tuple(edges), batch, *state)
            full = _is_lex_min_full(tuple(edges), autos)
            assert (res is not None) == full, (edges, batch)
            if res is None:
                break
            state = res
            clock += 1


def naive_enumerate(n, r, g):
    """Oracle: all arc permutations x all r-regular edge sets, filtered
    by exact girth, deduplicated by canonical form."""
    classes = set()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    regular_sets = []
    for combo in itertools.combinations(pairs, n * r // 2):
        deg = [0] * n
        for u, v in combo:
            deg[u] += 1
            deg[v] += 1
        if all(d == r for d in deg):
            regular_sets.append(combo)
    for perm in itertools.permutations(range(n)):
        if any(perm[i] == i for i in range(n)):
            continue  # a fixed point would be a loop
        arcs = [(i, perm[i]) for i in range(n)]
        for edges in regular_sets:
            graph = new_graph(n, edges, arcs)
            if girth_bruteforce(graph).girth != g:
                continue
            classes.add(canonical_form(graph).encoding)
    return classes


@pytest.mark.parametrize(
    "n,r,g",
    [
        (4, 1, 3), (5, 2, 3), (6, 1, 3), (6, 1, 4), (5, 2, 4),
        (6, 2, 3), (6, 2, 4), (7, 1, 3),
    ],
)
def test_enumerate_matches_naive_oracle(n, r, g):
    oracle = naive_enumerate(n, r, g)
    out = search_order(SearchSpec(r=r, g=g, n=n, mode="enumerate"))
    mine = {canonical_form(w).encoding for w in out.witnesses}
    assert mine == oracle


def test_witness_soundness():
    out = search_order(SearchSpec(r=3, g=4, n=10, mode="enumerate"))
    assert out.status == "found" and len(out.witnesses) == 2
    for w in out.witnesses:
        assert degree_profile(w).regular == (3, 1)
        assert girth(w).girth == 4
        assert girth_bruteforce(w).girth == 4


def test_decide_smallest_case():
    out = search_order(SearchSpec(r=1, g=3, n=4, mode="decide"))
    assert out.status == "found"
    w = out.witnesses[0]
    assert degree_profile(w).regular == (1, 1)
    assert girth(w).girth == 3


def test_odd_degree_sum_is_instantly_empty():
    out = search_order(SearchSpec(r=3, g=6, n=29, mode="decide"))
    assert out.status == "exhausted" and not out.witnesses
    assert out.stats.nodes == 0


def test_exhausted_is_a_nonexistence_proof():
    # n=5 admits no (2,1,4)-graph: oracle agrees
    out = search_order(SearchSpec(r=2, g=4, n=5, mode="enumerate"))
    assert out.status == "exhausted"
    assert naive_enumerate(5, 2, 4) == set()


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(r=3, g=6, n=5)  # n below girth
    with pytest.raises(ValueError):
        SearchSpec(r=3, g=6, n=30, z=2)
    with pytest.raises(ValueError):
        SearchSpec(r=0, g=3, n=4)
    with pytest.raises(ValueError):
        SearchSpec(r=1, g=3, n=4, mode="explore")


def test_determine_cage_number_3_1_3():
    result = determine_cage_number(3, 3, 10)
    assert result.value == 6
    assert result.provenance == "bound-matched"
    assert result.exhausted_below == ()
    assert degree_profile(result.witness).regular == (3, 1)
    assert girth(result.witness).girth == 3


def test_determine_cage_number_cap_below_bound():
    with pytest.raises(InconclusiveError):
        determine_cage_number(3, 6, 29)


def test_determinism():
    a = search_order(SearchSpec(r=3, g=4, n=12, mode="enumerate"))
    b = search_order(SearchSpec(r=3, g=4, n=12, mode="enumerate"))
    assert a.status == b.status
    assert a.stats.as_dict() == b.stats.as_dict()
    assert [sorted(w.edges) for w in a.witnesses] == [
        sorted(w.edges) for w in b.witnesses
    ]


def test_checkpoint_resume_matches_uninterrupted():
    full_spec = SearchSpec(r=3, g=4, n=12, mode="enumerate")
    full = search_order(full_spec)
    cut = search_order(
        SearchSpec(r=3, g=4, n=12, mode="enumerate", node_budget=500)
    )
    assert cut.status == "budget_exceeded"
    assert cut.checkpoint is not None
    # checkpoints survive a JSON round trip (the CLI stores them as files)
    resumed = search_order(
        full_spec, checkpoint=json.loads(json.dumps(cut.checkpoint))
    )
    assert resumed.status == full.status
    assert resumed.stats.as_dict() == full.stats.as_dict()
    assert {canonical_form(w).encoding for w in resumed.witnesses} == {
        canonical_form(w).encoding for w in full.witnesses
    }


def test_chained_checkpoint_resume():
    full = search_order(SearchSpec(r=3, g=4, n=12, mode="enumerate"))
    out = search_order(
        SearchSpec(r=3, g=4, n=12, mode="enumerate", node_budget=300)
    )
    hops = 0
    while out.status == "budget_exceeded":
        hops += 1
        assert hops < 50
        out = search_order(
            SearchSpec(
                r=3, g=4, n=12, mode="enumerate",
                node_budget=out.stats.nodes + 300,
            ),
            checkpoint=json.loads(json.dumps(out.checkpoint)),
        )
    assert hops >= 2
    assert out.stats.as_dict() == full.stats.as_dict()
    assert len(out.witnesses) == len(full.witnesses)


def test_checkpoint_spec_mismatch_rejected():
    cut = search_order(
        SearchSpec(r=3, g=4, n=12, mode="enumerate", node_budget=300)
    )
    with pytest.raises(ValueError):
        search_order(
            SearchSpec(r=3, g=4, n=12, mode="decide"),
            checkpoint=cut.checkpoint,
        )


_F5 = dict(r=3, g=5, n=20, mode="decide")
_WORKER_SPECS = [
    SearchSpec(**_F5),
    SearchSpec(r=3, g=6, n=30, mode="decide"),
    SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy="lex"),
    SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy="focus"),
] + [SearchSpec(**_F5, node_budget=b) for b in (1, 999, 1000, 1001, 3000)]


@functools.lru_cache(maxsize=None)
def _search(spec, workers):
    return search_order(spec, workers=workers)


def _observable(out):
    return (
        out.status,
        [w.sorted_edges() for w in out.witnesses],
        out.stats.as_dict(),
        json.dumps(out.checkpoint),
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_workers_match_in_process(workers):
    """Status, witnesses in order, statistics and checkpoint do not
    depend on the number of worker processes, budget cuts included."""
    for spec in _WORKER_SPECS:
        assert _observable(_search(spec, workers)) == _observable(
            _search(spec, 1)
        ), spec
    pinned = [(9_688, "exhausted", 0), (31_289, "found", 1),
              (1_509, "found", 29), (6_121, "found", 29)]
    for spec, (nodes, status, count) in zip(_WORKER_SPECS, pinned):
        out = _search(spec, workers)
        assert (out.stats.nodes, out.status, len(out.witnesses)) == (
            nodes, status, count
        )
    # a resume chain reproduces the direct cut at 3000 nodes and the
    # uninterrupted statistics
    out = search_order(SearchSpec(**_F5, node_budget=3000), workers=workers)
    assert _observable(out) == _observable(
        _search(SearchSpec(**_F5, node_budget=3000), 1)
    )
    hops = 0
    while out.status == "budget_exceeded":
        hops += 1
        out = search_order(
            SearchSpec(**_F5, node_budget=out.stats.nodes + 3000),
            checkpoint=json.loads(json.dumps(out.checkpoint)),
            workers=workers,
        )
    assert hops == 3
    assert _observable(out) == _observable(_search(SearchSpec(**_F5), 1))


def test_parallel_matches_sequential():
    seq = search_order(SearchSpec(r=3, g=4, n=12, mode="enumerate"))
    par = search_order(
        SearchSpec(r=3, g=4, n=12, mode="enumerate"), workers=2
    )
    assert par.status == seq.status
    assert {canonical_form(w).encoding for w in par.witnesses} == {
        canonical_form(w).encoding for w in seq.witnesses
    }
    assert par.stats.as_dict() == seq.stats.as_dict()


def test_parallel_decide():
    par = search_order(SearchSpec(r=1, g=3, n=6, mode="decide"), workers=2)
    assert par.status == "found"
    assert girth(par.witnesses[0]).girth == 3


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        search_order(SearchSpec(r=1, g=3, n=6), workers=0)


def test_time_budget_checkpoints():
    out = search_order(
        SearchSpec(r=3, g=6, n=30, mode="decide", time_budget=0.05)
    )
    # either the tiny window already found the witness or we get a
    # resumable checkpoint
    assert out.status in ("found", "budget_exceeded")
    if out.status == "budget_exceeded":
        assert out.checkpoint is not None
        resumed = search_order(
            SearchSpec(r=3, g=6, n=30, mode="decide"),
            checkpoint=json.loads(json.dumps(out.checkpoint)),
        )
        assert resumed.status == "found"


def test_decide_checkpoint_resume_matches_uninterrupted():
    spec = SearchSpec(r=3, g=5, n=20, mode="decide", branch_policy="focus")
    cut = search_order(
        SearchSpec(r=3, g=5, n=20, mode="decide", branch_policy="focus",
                   node_budget=3000)
    )
    assert cut.status == "budget_exceeded"
    resumed = search_order(
        spec, checkpoint=json.loads(json.dumps(cut.checkpoint))
    )
    assert resumed.status == "exhausted" and not resumed.witnesses
    assert resumed.stats.as_dict() == {
        "nodes": 9688, "girth_prunes": 8919,
        "canonicity_prunes": 0, "infeasible_prunes": 1759,
    }


# -- corrupt checkpoints


def _cut_checkpoint():
    spec = SearchSpec(r=3, g=4, n=12, mode="enumerate")
    cut = search_order(
        SearchSpec(r=3, g=4, n=12, mode="enumerate", node_budget=500)
    )
    assert cut.status == "budget_exceeded"
    return spec, json.loads(json.dumps(cut.checkpoint))


def _active_skeleton(cp):
    return next(
        sk for sk in cp["skeletons"] if sk["started"] and not sk["exhausted"]
    )


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda cp: cp.pop("stats"),
        lambda cp: cp.__setitem__("cursor", 99),
        lambda cp: cp.__setitem__("visit_quota_left", "740"),
        lambda cp: cp["skeletons"].pop(),
        lambda cp: cp["skeletons"][0].pop("path"),
        lambda cp: _active_skeleton(cp).__setitem__("path", "3,1"),
        lambda cp: _active_skeleton(cp).__setitem__("path", []),
        lambda cp: cp["stats"].pop("nodes"),
        lambda cp: cp.__setitem__("format", "something-else"),
        lambda cp: cp["skeletons"][0].__setitem__("parts", [6, 6]),
        lambda cp: _active_skeleton(cp)["path"].__setitem__(0, 10_000),
        # an inner frame must have applied a combination; index 0 would
        # replay combination -1
        lambda cp: _active_skeleton(cp)["path"].__setitem__(0, 0),
    ],
)
def test_malformed_checkpoint_rejected(corrupt):
    spec, cp = _cut_checkpoint()
    corrupt(cp)
    with pytest.raises(CheckpointError):
        search_order(spec, checkpoint=cp)


def test_checkpoint_replay_either_resumes_or_rejects():
    """Every inner index in range either names a combination that was
    expanded, or its replay is refused; no other exception escapes."""
    _, cp = _cut_checkpoint()
    outcomes = set()
    for value in range(1, 40):
        trial = json.loads(json.dumps(cp))
        _active_skeleton(trial)["path"][:] = [value, 0]
        try:
            search_order(
                SearchSpec(r=3, g=4, n=12, mode="enumerate", node_budget=0),
                checkpoint=trial,
            )
            outcomes.add("resumed")
        except CheckpointError:
            outcomes.add("rejected")
    assert outcomes == {"resumed", "rejected"}


# -- batched capped distances against bounded matrix powers


def _reference_reach(trans, cap):
    """Walks of length 1..cap in trans (boolean matrix powers)."""
    reach = trans.copy()
    fu = trans.astype(np.uint16)
    power = fu
    for _ in range(cap - 1):
        power = (power @ fu).astype(bool).astype(np.uint16)
        reach |= power.astype(bool)
    return reach


def _reference_dist(trans, cap):
    """Least walk length below cap for every ordered pair, else cap."""
    n = len(trans)
    dist = np.full((n, n), cap, dtype=np.int32)
    power = np.eye(n, dtype=np.uint16)
    for k in range(cap):
        dist[(power > 0) & (dist == cap)] = k
        power = (power @ trans.astype(np.uint16)).astype(bool).astype(np.uint16)
    return dist


def _reference_free(search, trans, adj):
    """Pairs an edge could still join: distinct, not adjacent, and no
    walk of length <= g-2 between them either way."""
    n = search.n
    near = np.zeros((n, n), dtype=bool)
    if search.spec.g - 2 >= 1:
        near = _reference_reach(trans, search.spec.g - 2)
    return ~(near | near.T | adj | np.eye(n, dtype=bool))


def _reference_combos(search, trans, v, cands):
    """Combination generation with the pair filter recomputed on a copy
    of the graph with v deleted."""
    need = search.spec.r - int(search.deg[v])
    if len(cands) < need:
        return [], 0
    bad = np.zeros((search.n, search.n), dtype=bool)
    cap = search.spec.g - 3
    if cap >= 1:
        cut = trans.copy()
        cut[v, :] = False
        cut[:, v] = False
        reach = _reference_reach(cut, cap)
        bad = reach | reach.T
    out = [
        c for c in itertools.combinations(cands, need)
        if not any(bad[a, b] for a, b in itertools.combinations(c, 2))
    ]
    return out, comb(len(cands), need) - len(out)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incremental_distances_match_matrix_powers(data):
    """Batches of edges at one vertex, with partners drawn from every
    non-adjacent vertex (so they may be near each other or near v), and
    undos of whole batches; after every step the distances, the free
    pairs, the slack, the candidates and the combinations equal a
    from-scratch recount."""
    g = data.draw(st.integers(2, 7), label="g")
    n = data.draw(st.integers(g, g + 7), label="n")
    skeletons = list(arc_skeletons(n, g))
    skeleton = skeletons[data.draw(st.integers(0, len(skeletons) - 1))]
    r = data.draw(st.integers(1, 4), label="r")
    spec = SearchSpec(
        r=r, g=g, n=n,
        branch_policy=data.draw(st.sampled_from(["lex", "focus"])),
    )
    search = _SkeletonSearch(spec, skeleton)
    arc_mat = np.zeros((n, n), dtype=bool)
    for a, b in skeleton.arcs:
        arc_mat[a, b] = True
    batches = []
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        if batches and data.draw(st.booleans(), label="undo"):
            search._pop_batch()
            batches.pop()
        else:
            adj = np.zeros((n, n), dtype=bool)
            for v, partners in batches:
                adj[v, list(partners)] = adj[list(partners), v] = True
            v = data.draw(st.integers(0, n - 1), label="v")
            options = [u for u in range(n) if u != v and not adj[v, u]]
            if not options:
                continue
            partners = tuple(sorted(data.draw(
                st.lists(st.sampled_from(options), min_size=1,
                         max_size=min(r, len(options)), unique=True),
                label="partners",
            )))
            search._add_batch(v, partners)
            batches.append((v, partners))
        adj = np.zeros((n, n), dtype=bool)
        deg = np.zeros(n, dtype=int)
        for v, partners in batches:
            for u in partners:
                adj[v, u] = adj[u, v] = True
                deg[u] += 1
            deg[v] += len(partners)
        assert sorted(search.edges) == sorted(zip(*np.nonzero(np.triu(adj))))
        assert search.deg.tolist() == deg.tolist()
        trans = arc_mat | adj
        assert (search.dist == _reference_dist(trans, g - 1)).all()
        free = _reference_free(search, trans, adj)
        assert (search.free == free).all()
        rows = [x for x in range(n) if deg[x] < r]
        slack = [
            sum(1 for y in rows if free[x, y]) - (r - deg[x]) for x in rows
        ]
        got_rows, got_slack = search._slack()
        assert got_rows.tolist() == rows and got_slack.tolist() == slack
        for x in rows:
            floor = x if spec.effective_policy() == "lex" else -1
            cands = [y for y in rows if free[x, y] and y > floor]
            assert search._candidates(x).tolist() == cands
            assert search._combos_for(x) == _reference_combos(
                search, trans, x, cands
            )


def test_checkpoint_replay_rebuilds_search_state(monkeypatch):
    """Replaying a mid-run checkpoint rebuilds, skeleton by skeleton, the
    distances, free pairs, degrees and frames that the interrupted run
    held at the same node."""
    import mixedcages.search as search_module

    live = []

    class Recording(_SkeletonSearch):
        def __init__(self, spec, skeleton):
            super().__init__(spec, skeleton)
            live.append(self)

    spec = SearchSpec(r=3, g=5, n=20, mode="decide", branch_policy="focus",
                      node_budget=3000)
    monkeypatch.setattr(search_module, "_SkeletonSearch", Recording)
    cut = search_order(spec)
    monkeypatch.undo()
    assert cut.status == "budget_exceeded"
    states = json.loads(json.dumps(cut.checkpoint))["skeletons"]
    assert len(live) == len(states)
    assert any(run.edges for run in live)
    for run, state in zip(live, states):
        fresh = _SkeletonSearch(spec, run.skeleton)
        fresh.restore(state)
        assert fresh.edges == run.edges
        assert (fresh.dist == run.dist).all()
        assert (fresh.free == run.free).all()
        assert (fresh.deg == run.deg).all()
        assert len(fresh._undo) == len(run._undo)
        assert [(f.vertex, f.next_idx, f.combos) for f in fresh.stack] == [
            (f.vertex, f.next_idx, f.combos) for f in run.stack
        ]


@pytest.mark.skipif(
    not __import__("os").environ.get("MIXEDCAGES_RUN_UNIQUENESS"),
    reason="over a minute of CPU; set MIXEDCAGES_RUN_UNIQUENESS=1 to run",
)
@pytest.mark.parametrize("workers", [1, 2])
def test_uniqueness_of_order_30_graph(workers):
    """Full isomorph-free enumeration at order 30: exactly one class.

    About 70 s single-core; RESULTS.md records the run.  Under two
    workers the same tree runs through the process pool.
    """
    from mixedcages import build_g30, is_isomorphic

    out = search_order(
        SearchSpec(r=3, g=6, n=30, mode="enumerate", branch_policy="focus"),
        workers=workers,
    )
    assert out.status == "found"
    assert len(out.witnesses) == 1
    assert out.stats.nodes == 857_912
    verdict, _ = is_isomorphic(out.witnesses[0], build_g30())
    assert verdict
