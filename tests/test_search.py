import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import pickle
import types
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedcages import (
    __version__,
    CheckpointError,
    InconclusiveError,
    SearchSpec,
    SearchStats,
    arc_skeletons,
    automorphism_group,
    canonical_form,
    degree_profile,
    determine_cage_number,
    girth,
    girth_bruteforce,
    new_graph,
    search_order,
    skeleton_group_order,
)
import mixedcages.search as search_module
from mixedcages.search import (
    _SkeletonSearch,
    _code_dtype,
    _edge_key,
    _image_codes,
    _least_image,
    _orbit_keys,
    _skeleton_autos,
)

from conftest import check_result_record


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


def _skeleton_autos_reference(parts):
    """Loop construction of the skeleton group: for each permutation of
    equal-length cycles, each combination of cycle rotations."""
    n = sum(parts)
    starts = [sum(parts[:i]) for i in range(len(parts))]
    classes = [[i for i, p in enumerate(parts) if p == length]
               for length in sorted(set(parts))]
    out = []
    for assignment in itertools.product(
            *[itertools.permutations(c) for c in classes]):
        sigma = {}
        for cls, mapped in zip(classes, assignment):
            sigma.update(zip(cls, mapped))
        for rots in itertools.product(*[range(p) for p in parts]):
            img = [0] * n
            for i, length in enumerate(parts):
                for pos in range(length):
                    img[starts[i] + pos] = (
                        starts[sigma[i]] + (pos + rots[i]) % length
                    )
            out.append(img)
    return out


@pytest.mark.parametrize(
    "parts", [(2,), (5, 3), (4, 4), (4, 4, 3), (3, 3, 3), (3, 3, 2, 2)]
)
def test_skeleton_autos_match_reference(parts):
    autos = _skeleton_autos(parts)
    assert autos.tolist() == _skeleton_autos_reference(parts)
    assert autos.dtype == np.int8
    arcs = set(next(s for s in arc_skeletons(sum(parts), 2)
                    if s.parts == parts).arcs)
    for gamma in autos.tolist():
        assert {(gamma[a], gamma[b]) for a, b in arcs} == arcs


def _is_lex_min_full(edges, autos):
    """Reference full scan: no skeleton automorphism maps the sorted
    edge list to a lexicographically smaller one."""
    for gamma in autos:
        mapped = sorted(
            tuple(sorted((gamma[a], gamma[b]))) for a, b in edges
        )
        if mapped < list(edges):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_least_image_matches_full_scan(data):
    """On random sorted edge sets of every size: the orderly test (own
    codes equal the least image) agrees with the full scan, the least
    image is the least of all images, every image of the set gets the
    same least image, and the orbit keys are the keys of the images.
    (4, 4, 4) has the most rows tied on the least code."""
    parts = data.draw(st.sampled_from(
        [(4, 4), (4, 4, 3), (3, 3, 3), (5, 3), (4, 4, 4)]
    ))
    n = sum(parts)
    array = _skeleton_autos(parts)
    autos = array.tolist()
    pairs = list(itertools.combinations(range(n), 2))
    size = data.draw(st.integers(0, len(pairs)), label="size")
    edges = sorted(data.draw(st.permutations(pairs))[:size])
    least = _least_image(array, edges).tolist()
    assert (least == [a * n + b for a, b in edges]) == _is_lex_min_full(
        edges, autos
    )
    images = [
        sorted(tuple(sorted((gamma[a], gamma[b]))) for a, b in edges)
        for gamma in autos
    ]
    assert least == [a * n + b for a, b in min(images)]
    for image in images:
        assert _least_image(array, image).tolist() == least
    assert _orbit_keys(array, edges) == [_edge_key(i, n) for i in images]


def test_least_image_of_no_edges():
    """An empty edge list has no code columns to rank: its least image
    and its one orbit key are empty."""
    array = _skeleton_autos((4, 4, 4))
    assert _least_image(array, []).tolist() == []
    assert set(_orbit_keys(array, [])) == {_edge_key([], 12)} == {b""}


@pytest.mark.parametrize("n, dtype", [(181, np.int16), (182, np.int32)])
def test_edge_codes_widen_past_the_int16_maximum(n, dtype):
    """The codes a*n+b stay below n*n, which first exceeds the int16
    maximum 32767 at n = 182 (181**2 = 32761)."""
    assert _code_dtype(n) is dtype
    edges = [(0, 1), (n - 2, n - 1)]
    codes = [1, (n - 2) * n + n - 1]
    identity = np.arange(n, dtype=np.int16)[None, :]
    image = _image_codes(identity, edges)
    assert image.dtype == dtype and image.tolist() == [codes]
    assert np.frombuffer(_edge_key(edges, n), dtype=dtype).tolist() == codes


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


@pytest.mark.parametrize("r", [4, 5, 10**30], ids=["r=n", "r>n", "r-huge"])
def test_degree_not_below_order_is_instantly_empty(r):
    """A simple r-regular edge layer needs r < n; at r >= n no search
    state is built, so no integer type has to hold r."""
    out = search_order(SearchSpec(r=r, g=3, n=4, mode="enumerate"))
    assert out.status == "exhausted" and not out.witnesses
    assert out.stats == SearchStats()


def test_exhausted_is_a_nonexistence_proof():
    # n=5 admits no (2,1,4)-graph: oracle agrees
    out = search_order(SearchSpec(r=2, g=4, n=5, mode="enumerate"))
    assert out.status == "exhausted"
    assert naive_enumerate(5, 2, 4) == set()


@pytest.mark.parametrize("mode", ["decide", "enumerate"])
@pytest.mark.parametrize(
    "r, g, n, pruned",
    [
        # every root is infeasible: no vertex finds four partners
        (4, 3, 6, {"infeasible_prunes": 2}),
        # every root combination closes a short cycle
        (3, 4, 8, {"girth_prunes": 5}),
    ],
)
def test_root_only_trees(mode, r, g, n, pruned):
    """Skeletons decided at the root count their prunes but no node."""
    out = search_order(SearchSpec(r=r, g=g, n=n, mode=mode))
    assert out.status == "exhausted" and not out.witnesses
    expected = {"nodes": 0, "girth_prunes": 0, "canonicity_prunes": 0,
                "infeasible_prunes": 0, **pruned}
    assert out.stats.as_dict() == expected


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(r=3, g=6, n=5)  # n below girth
    with pytest.raises(TypeError):
        SearchSpec(r=3, g=6, n=30, z=2)  # out-degree is fixed at 1
    with pytest.raises(TypeError):
        SearchSpec(r=3, g=6, n=30, canonicity_cap=1)  # a module constant
    with pytest.raises(ValueError):
        SearchSpec(r=0, g=3, n=4)
    with pytest.raises(ValueError):
        SearchSpec(r=1, g=3, n=4, mode="explore")
    for budget in ({"node_budget": -5}, {"time_budget": -1.0},
                   {"time_budget": float("nan")}):
        with pytest.raises(ValueError, match="budget"):
            SearchSpec(r=3, g=7, n=40, **budget)
    # a zero budget is valid: the search stops before its first node
    SearchSpec(r=3, g=7, n=40, node_budget=0, time_budget=0.0)


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


def test_determine_cage_number_search_determined(monkeypatch):
    """A value above the lower bound is "search-determined" and lists
    the orders proven empty below it.  Every small (r, g) is
    bound-matched, so the bound is lowered to 4 for (3,1,3): order 4
    has no room for the arcs beside K4, and order 5 has an odd degree
    sum."""
    monkeypatch.setattr(search_module, "ahm_bound", lambda r, g: 4)
    result = determine_cage_number(3, 3, 10)
    assert result.value == 6
    assert result.provenance == "search-determined"
    assert result.exhausted_below == (4, 5)
    assert degree_profile(result.witness).regular == (3, 1)
    assert girth(result.witness).girth == 3


@pytest.mark.parametrize("kwargs,reason", [
    (dict(n_max=21), "no witness up to order cap 21"),
    (dict(n_max=25, node_budget=10_000), "budget exceeded at order 22"),
], ids=["order-cap", "budget"])
def test_determine_cage_number_inconclusive(kwargs, reason):
    """(3,1,5) from its bound 20: order 20 exhausts in 9,688 nodes and
    order 21 has an odd degree sum, so both are proven empty before the
    order cap, or the node budget at order 22, stops the scan."""
    with pytest.raises(InconclusiveError) as exc:
        determine_cage_number(3, 5, **kwargs)
    assert str(exc.value) == reason
    assert exc.value.exhausted_orders == (20, 21)


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
    # edge lists in order: a set of encodings would hide a duplicate
    assert [w.sorted_edges() for w in resumed.witnesses] == [
        w.sorted_edges() for w in full.witnesses
    ]


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
    # an odd degree sum ends the search at once, after the check
    with pytest.raises(ValueError, match="does not match"):
        search_order(
            SearchSpec(r=3, g=4, n=13, mode="enumerate"),
            checkpoint=cut.checkpoint,
        )


_F5 = dict(r=3, g=5, n=20, mode="decide")
_WORKER_SPECS = [
    SearchSpec(**_F5),
    SearchSpec(r=3, g=6, n=30, mode="decide"),
    SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy="lex"),
    SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy="focus"),
] + [SearchSpec(**_F5, node_budget=b) for b in (1, 999, 1000, 1001, 3000)] + [
    # an enumerate quantum is unbounded, so a round's first visit is
    # granted the whole budget left, and each later one, granted
    # nothing, is visited on once those before it stop early
    SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy=policy,
               node_budget=b)
    for policy, budgets in (("lex", (400, 1000)), ("focus", (400, 2000, 5000)))
    for b in budgets
]


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
    assert [w.sorted_edges() for w in par.witnesses] == [
        w.sorted_edges() for w in seq.witnesses
    ]
    assert par.stats.as_dict() == seq.stats.as_dict()


def test_parallel_decide():
    par = search_order(SearchSpec(r=1, g=3, n=6, mode="decide"), workers=2)
    assert par.status == "found"
    assert girth(par.witnesses[0]).girth == 3


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        search_order(SearchSpec(r=1, g=3, n=6), workers=0)


@functools.lru_cache(maxsize=None)
def _in_order(spec):
    """A reference driver: the pending searches visited one at a time,
    in the rotation order of search_order, each granted its quota capped
    by the budget that the visits merged before it leave."""
    searches = [_SkeletonSearch(spec, sk)
                for sk in arc_skeletons(spec.n, spec.g)]
    quantum = (search_module.ROTATION_QUANTUM if spec.mode == "decide"
               else float("inf"))
    budget = float("inf") if spec.node_budget is None else spec.node_budget

    def outcome(status):
        stats = SearchStats()
        for s in searches:
            stats.add(s.stats)
        checkpoint = None
        if status == "budget_exceeded":
            checkpoint = {
                "format": search_module.CHECKPOINT_FORMAT,
                "version": search_module.CHECKPOINT_VERSION,
                "package_version": __version__,
                "spec": spec.key(),
                "skeletons": [s.to_state() for s in searches],
            }
        return search_module.SearchOutcome(
            status, [w for s in searches for w in s.witnesses], stats,
            checkpoint)

    while True:
        order = sorted(
            (i for i, s in enumerate(searches) if not s.exhausted),
            key=lambda i: searches[i].stats.nodes // quantum)
        if not order:
            found = any(s.witnesses for s in searches)
            return outcome("found" if found else "exhausted")
        for i in order:
            quota = quantum - searches[i].stats.nodes % quantum
            left = budget - sum(s.stats.nodes for s in searches)
            if left <= 0:
                return outcome("budget_exceeded")
            _, status, used = searches[i].visit(min(quota, left), None)
            if status == "found":
                return outcome("found")
            if status == "paused" and used < quota:
                return outcome("budget_exceeded")


_GRANT_SWEEP = [
    SearchSpec(r=3, g=6, n=30, node_budget=b)
    for b in (None, 0, 1, 500, 1000, 2500, 5000, 20_000, 31_288, 31_289)
] + [
    SearchSpec(**_F5, node_budget=b)
    for b in (None, 1, 700, 999, 1000, 1001, 3000, 9000)
] + [
    SearchSpec(r=r, g=g, n=n, mode="enumerate", branch_policy=policy,
               node_budget=b)
    for r, g, n, policy, budgets in (
        (3, 4, 12, "focus", (None, 400, 2000, 4000, 6000)),
        (3, 4, 12, "lex", (None, 400, 1000)),
        (3, 3, 8, "focus", (None, 100, 1000)),
    )
    for b in budgets
]


@pytest.mark.parametrize("workers", [1, 2])
def test_grants_match_visits_in_order(monkeypatch, workers):
    """A round grants its visits up front, each its quota capped by the
    budget left at the round's start less the grants before it, and a
    visit granted less than a visit in order gets, because one before it
    stopped early, is visited on when it is merged.  So every run of the
    sweep ends as the reference driver, which grants each visit only when
    the one before it is merged, ends: status, witnesses, statistics and
    checkpoint.  At 3,000 nodes of the (3,1,5)@20 decide search the first
    round's grants run out at (14,6), and as earlier skeletons exhaust
    early, (13,7), (12,8) and (11,9), granted nothing, are visited on
    in turn until the budget is spent."""
    for spec in _GRANT_SWEEP:
        assert _observable(_search(spec, workers)) == _observable(
            _in_order(spec)), spec
    continued = []
    real = _SkeletonSearch.visit

    def recording(search, quota, deadline):
        continued.append((search.skeleton.parts, search.stats.nodes, quota))
        return real(search, quota, deadline)

    monkeypatch.setattr(_SkeletonSearch, "visit", recording)
    search_order(SearchSpec(**_F5, node_budget=3000), workers=workers)
    # (skeleton, nodes before, quota): (11,9) takes the last 156 nodes
    assert continued == [((13, 7), 0, 1000), ((12, 8), 0, 1000),
                         ((11, 9), 0, 156)]


def test_round_granting_nothing_maps_no_share(monkeypatch):
    """A round whose grants are all 0 ends the run as budget exceeded
    before any share is mapped through the pool, so no worker process
    starts: at budget 0, and on a resume whose budget is its checkpoint's
    node count.  The outcome is that of the run in process."""
    import concurrent.futures

    class NoMap(concurrent.futures.ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            raise AssertionError("a round that grants nothing was mapped")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoMap)
    spec = SearchSpec(r=3, g=6, n=30, mode="decide", node_budget=0)
    out = search_order(spec, workers=2)
    assert out.status == "budget_exceeded"
    assert _observable(out) == _observable(search_order(spec))
    cut = _search(SearchSpec(**_F5, node_budget=3000), 1)
    resumed = search_order(SearchSpec(**_F5, node_budget=3000),
                           checkpoint=json.loads(json.dumps(cut.checkpoint)),
                           workers=2)
    assert _observable(resumed) == _observable(cut)


def test_pool_with_fewer_searches_than_workers():
    """Two skeletons in a pool of three: one worker's share of each
    round is empty, and the outcome is that of the run in process."""
    for mode in ("decide", "enumerate"):
        spec = SearchSpec(r=1, g=3, n=6, mode=mode)
        assert len(list(arc_skeletons(spec.n, spec.g))) == 2
        assert _observable(search_order(spec, workers=3)) == _observable(
            search_order(spec)), mode
    assert search_module._round([], [], None) == []


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
    """The checkpoint format is pinned: the cut writes, as the CLI does,
    the same JSON as the committed file, apart from the package version
    (provenance only), and that file resumes to the uninterrupted
    statistics.  Its spec key records z = 1 and ROTATION_QUANTUM,
    constants of the search."""
    golden = (Path(__file__).resolve().parent / "golden"
              / "3-5-20-focus.checkpoint.json").read_text(encoding="ascii")
    recorded = json.loads(golden)
    spec = SearchSpec(r=3, g=5, n=20, mode="decide", branch_policy="focus")
    cut = search_order(
        SearchSpec(r=3, g=5, n=20, mode="decide", branch_policy="focus",
                   node_budget=3000)
    )
    assert cut.status == "budget_exceeded"
    written = {**cut.checkpoint,
               "package_version": recorded["package_version"]}
    assert json.dumps(written) == golden
    resumed = search_order(spec, checkpoint=recorded)
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


def _unstarted_skeleton(cp):
    return next(sk for sk in cp["skeletons"] if not sk["started"])


def _plant_in_unstarted(cp):
    """Give the first record not started a verified witness on its own
    skeleton's arcs, which _restore_witnesses alone would accept."""
    record = _unstarted_skeleton(cp)
    arcs = next(frozenset(sk.arcs) for sk in arc_skeletons(12, 4)
                if list(sk.parts) == record["parts"])
    full = _search(SearchSpec(r=3, g=4, n=12, mode="enumerate"), 1)
    record["witnesses"].append(search_module.graph_payload(
        next(w for w in full.witnesses if w.arcs == arcs)))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda cp: _active_skeleton(cp).pop("stats"),
        lambda cp: _active_skeleton(cp).pop("witnesses"),
        lambda cp: _active_skeleton(cp)["stats"].__setitem__("nodes", "740"),
        lambda cp: cp["skeletons"].pop(),
        lambda cp: cp["skeletons"][0].pop("path"),
        lambda cp: _active_skeleton(cp).__setitem__("path", "3,1"),
        lambda cp: _active_skeleton(cp).__setitem__("path", []),
        lambda cp: _active_skeleton(cp)["stats"].pop("nodes"),
        lambda cp: cp.__setitem__("format", "something-else"),
        lambda cp: cp["skeletons"][0].__setitem__("parts", [6, 6]),
        lambda cp: _active_skeleton(cp)["path"].__setitem__(0, 10_000),
        # an inner frame must have applied a combination; index 0 would
        # replay combination -1
        lambda cp: _active_skeleton(cp)["path"].__setitem__(0, 0),
        # format 1, which also listed the witnesses' encodings
        lambda cp: cp.update(version=1, seen_forms=[]),
        # format 2, which kept the statistics, the witnesses and the
        # schedule position at the top level
        lambda cp: cp.update(version=2, cursor=0, visit_quota_left=None),
        # records that contradict themselves: a record is started exactly
        # when it is exhausted or on a path, never both, and one not
        # started has no counts and no witnesses.  Unchecked, the first
        # restarts the skeleton on top of its counts, and the second
        # skips the rest of it and reports "found" with a class missing
        lambda cp: _active_skeleton(cp).__setitem__("started", False),
        lambda cp: _active_skeleton(cp).__setitem__("exhausted", True),
        lambda cp: _unstarted_skeleton(cp)["stats"].__setitem__("nodes", 1),
        lambda cp: _plant_in_unstarted(cp),
    ],
)
def test_malformed_checkpoint_rejected(corrupt):
    spec, cp = _cut_checkpoint()
    corrupt(cp)
    with pytest.raises(CheckpointError):
        search_order(spec, checkpoint=cp)


@pytest.mark.parametrize("cap", [search_module.CANONICITY_CAP, 1])
@pytest.mark.parametrize("policy", ["lex", "focus"])
def test_repeated_witness_rejected(monkeypatch, policy, cap):
    """A checkpoint witness that repeats an earlier one's class, as a
    copy or as its image under a skeleton automorphism, is refused on
    orderly and non-orderly skeletons, keyed by orbit or by encoding."""
    monkeypatch.setattr(search_module, "CANONICITY_CAP", cap)
    spec = SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy=policy)
    cut = search_order(dataclasses.replace(spec, node_budget=500))
    k, record = next((k, sk) for k, sk in enumerate(cut.checkpoint["skeletons"])
                     if sk["witnesses"])
    first = search_module.graph_from_payload(record["witnesses"][0])
    parts = next(sk.parts for sk in arc_skeletons(12, 4)
                 if frozenset(sk.arcs) == first.arcs)
    images = (new_graph(12, [(p[a], p[b]) for a, b in first.edges],
                        [(p[a], p[b]) for a, b in first.arcs])
              for p in _skeleton_autos(parts).tolist())
    moved = next(g for g in images if g.edges != first.edges)
    for repeat in (first, moved):
        cp = json.loads(json.dumps(cut.checkpoint))
        cp["skeletons"][k]["witnesses"].append(
            search_module.graph_payload(repeat))
        with pytest.raises(CheckpointError, match="repeats a class"):
            search_order(spec, checkpoint=cp)


@pytest.mark.parametrize("policy", ["lex", "focus"])
def test_resume_drops_a_recorded_class_it_meets_again(policy):
    """The record of the skeleton a cut is inside may hold a verified
    witness of a class the cut has not reached, in its own labeling, so
    on its skeleton's arcs and as the search will emit it.  The restored
    keys of that skeleton drop the class when the resumed search meets
    it, under lex (orderly skeletons) as under focus: one witness per
    class, 29, the same graphs as the uninterrupted run.  (A record not
    started holds no witnesses; test_malformed_checkpoint_rejected.)"""
    spec = SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy=policy)
    full = search_order(spec)
    # at 700 nodes both policies are inside (8,4) with classes unreached
    cut = search_order(dataclasses.replace(spec, node_budget=700))
    reached = {canonical_form(w).encoding for w in cut.witnesses}
    planted = next(w for w in full.witnesses
                   if canonical_form(w).encoding not in reached)
    cp = json.loads(json.dumps(cut.checkpoint))
    record = next(state for state, sk in zip(cp["skeletons"],
                                             arc_skeletons(12, 4))
                  if frozenset(sk.arcs) == planted.arcs)
    assert record["started"] and not record["exhausted"]
    record["witnesses"].append(search_module.graph_payload(planted))
    out = search_order(spec, checkpoint=cp)
    assert out.status == "found"
    assert len(out.witnesses) == 29
    assert len({canonical_form(w).encoding for w in out.witnesses}) == 29
    assert sorted(w.sorted_edges() for w in out.witnesses) == sorted(
        w.sorted_edges() for w in full.witnesses)


def test_checkpoint_records_package_version():
    """The package version is provenance only: a checkpoint without it,
    or from another version, resumes to the uninterrupted statistics."""
    spec, cp = _cut_checkpoint()
    assert cp["version"] == 3
    assert cp["package_version"] == __version__
    full = search_order(spec).stats.as_dict()
    for recorded in (None, "0.0.0"):
        trial = json.loads(json.dumps(cp))
        if recorded is None:
            del trial["package_version"]
        else:
            trial["package_version"] = recorded
        resumed = search_order(spec, checkpoint=trial)
        assert resumed.stats.as_dict() == full


def _path_to(search, state):
    """The path indices of the first child, in depth-first order below
    the search's top frame, whose _descend state is ``state``, or None."""
    frame = search.stack[-1]
    for idx, combo in enumerate(frame.combos):
        got, _ = search._descend(frame, combo)
        if got == state:
            return [idx + 1]
        if got == "pushed":
            below = _path_to(search, state)
            if below is not None:
                return [idx + 1] + below
            search.stack.pop()
        search._pop_batch()
    return None


@pytest.mark.parametrize("policy, state", [("lex", "noncanonical"),
                                           ("focus", "infeasible")])
def test_replay_divergence_names_the_state(policy, state):
    """A checkpoint path whose inner indices lead to a child that is not
    "pushed" is refused at the depth of that child, and the message names
    its state: a non-canonical child of an orderly search, or an
    infeasible one."""
    spec = SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy=policy)
    cut = search_order(dataclasses.replace(spec, node_budget=500))
    cp = json.loads(json.dumps(cut.checkpoint))
    record = _active_skeleton(cp)
    search = _SkeletonSearch(spec, next(sk for sk in arc_skeletons(12, 4)
                                        if list(sk.parts) == record["parts"]))
    assert search._expand()[0] == "pushed"
    path = _path_to(search, state)
    assert path is not None
    record["path"] = path + [0]
    with pytest.raises(CheckpointError, match=(
            f"diverged at depth {len(path)} of skeleton .*: {state} after")):
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


# node counts inside the (12,), (8,4) and (6,6) skeletons of the (3,1,4)@12
# focus tree, and twice inside (4,4,4)
FUZZ_CUTS = (300, 1000, 2500, 4000, 5500)
_FOCUS_12 = SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy="focus")
_LEAF_VALUES = (0, -1, 7, True, None, "x", 1.5, [], {})


@functools.lru_cache(maxsize=None)
def _focus_cut(nodes):
    """The focus checkpoint cut at ``nodes``, as JSON text, so that each
    trial edits a fresh copy."""
    out = search_order(dataclasses.replace(_FOCUS_12, node_budget=nodes))
    assert out.status == "budget_exceeded"
    return json.dumps(out.checkpoint)


@functools.lru_cache(maxsize=None)
def _focus_classes():
    return frozenset(canonical_form(w).encoding
                     for w in _search(_FOCUS_12, 1).witnesses)


def _leaves(node, path=()):
    """The key paths to the scalars of a JSON value."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items
                for leaf in _leaves(child, path + (key,))]
    return [path]


def _at(node, path):
    return functools.reduce(operator.getitem, path, node)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_checkpoint_resumes_soundly_or_is_refused(data):
    """One edit to the skeleton records of a cut focus checkpoint: a
    scalar set to another JSON value, a witness copied into a record, an
    integer moved by one, or a witness grown to order 13 by moving one
    edge end onto the new vertex, which only the order check refuses
    before the class test indexes by vertex.  The resume either refuses
    the checkpoint with a ValueError (CheckpointError is one) or returns
    verified witnesses, (3,1)-regular of girth 4, of distinct classes
    among the 29.  It need not return all 29: a record of an unfinished
    skeleton marked exhausted reads as finished, since checkpoints are
    not authenticated."""
    cp = json.loads(_focus_cut(data.draw(st.sampled_from(FUZZ_CUTS))))
    records = cp["skeletons"]
    edit = data.draw(st.sampled_from(("leaf", "copy", "shift", "grow")))
    if edit in ("copy", "grow"):
        witness = data.draw(st.sampled_from(
            [w for sk in records for w in sk["witnesses"]]))
    if edit == "copy":
        data.draw(st.sampled_from(records))["witnesses"].append(witness)
    elif edit == "grow":
        edge = data.draw(st.sampled_from(witness["edges"]))
        edge[data.draw(st.sampled_from((0, 1)))] = witness["n"]
        witness["n"] += 1
    else:
        leaves = _leaves(records)
        if edit == "shift":
            leaves = [path for path in leaves
                      if type(_at(records, path)) is int]
        *head, last = data.draw(st.sampled_from(leaves))
        parent = _at(records, head)
        parent[last] = (data.draw(st.sampled_from(_LEAF_VALUES))
                        if edit == "leaf"
                        else parent[last] + data.draw(st.sampled_from((-1, 1))))
    try:
        out = search_order(_FOCUS_12, checkpoint=cp)
    except ValueError:
        return
    encodings = [canonical_form(w).encoding for w in out.witnesses]
    assert len(set(encodings)) == len(encodings)
    assert set(encodings) <= _focus_classes()
    for w in out.witnesses:
        assert degree_profile(w).regular == (3, 1)
        assert girth(w).girth == 4


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grow_matches_filtered_combinations(data):
    """On random asymmetric int8 matrices, pools of 0..12 and thresholds
    below, inside and above the values: _grow appends exactly the
    k-subsets of the pool, k = 2..4, whose pairs pass ``lo`` both ways,
    each after ``head``, in lexicographic order."""
    n = 12
    dist = np.array(data.draw(st.lists(st.integers(-3, 6), min_size=n * n,
                                       max_size=n * n)),
                    dtype=np.int8).reshape(n, n)
    pool = sorted(data.draw(st.sets(st.integers(0, n - 1)), label="pool"))
    k = data.draw(st.integers(2, 4), label="k")
    lo = data.draw(st.integers(-4, 7), label="lo")
    head = data.draw(st.sampled_from([(), (n,), (n, n + 1)]), label="head")
    out = [("kept",)]
    search_module._grow(out, dist.item, lo, head, pool, k)
    assert out == [("kept",)] + [
        head + c for c in itertools.combinations(pool, k)
        if all(dist[a, b] >= lo and dist[b, a] >= lo
               for a, b in itertools.combinations(c, 2))]


@pytest.mark.parametrize("kwargs,status,stats,pools", [
    (dict(r=3, g=5, n=20), "exhausted",
     SearchStats(nodes=9688, girth_prunes=8919, canonicity_prunes=0,
                 infeasible_prunes=1759),
     {"small", "large"}),
    (dict(r=3, g=4, n=12, mode="enumerate", branch_policy="lex"), "found",
     SearchStats(nodes=1509, girth_prunes=687, canonicity_prunes=366,
                 infeasible_prunes=462),
     {"single", "small", "large"}),
], ids=["3-5-20-focus", "3-4-12-lex"])
def test_combos_match_reference_on_search_states(monkeypatch, kwargs, status,
                                                 stats, pools):
    """Every combination list of a search tree equals the list recomputed
    with the pair filter on a copy of the graph with v deleted, from
    candidates recounted from scratch; the tree keeps its pinned
    statistics.  The (3,1,5)@20 decide tree has pools of ``need`` >= 2
    from exactly ``need`` candidates to many more; the (3,1,4)@12 lex
    enumeration adds pools of one missing edge, and its completed vertex
    v is the least deficient one, so no partner it may take lies at or
    below v."""
    real = _SkeletonSearch._combos_for
    seen = set()

    def checked(search, v, free):
        got = real(search, v, free)
        n = search.n
        adj = np.zeros((n, n), dtype=bool)
        for a, b in search.edges:
            adj[a, b] = adj[b, a] = True
        trans = _arc_matrix(search.skeleton) | adj
        ref_free = _reference_free(search, trans, adj)
        cands = [y for y in range(n) if search.deg[y] < search.spec.r
                 and ref_free[v, y]]
        if search.policy == "lex":
            assert all(y > v for y in cands)
        assert got == _reference_combos(search, trans, v, cands)
        need = search.spec.r - int(search.deg[v])
        seen.add("single" if need == 1 else
                 "small" if len(cands) <= need + 1 else "large")
        return got

    monkeypatch.setattr(_SkeletonSearch, "_combos_for", checked)
    out = search_order(SearchSpec(**kwargs))
    assert out.status == status
    assert out.stats == stats
    assert seen == pools


def test_decide_order_30_tree_is_pinned():
    """The headline decide search finds the order-30 cage at the same
    node, with the same prune counts, that the benchmark pins."""
    from mixedcages import build_g30, is_isomorphic

    out = search_order(SearchSpec(r=3, g=6, n=30))
    assert out.status == "found"
    assert out.stats == SearchStats(nodes=31289, girth_prunes=52983,
                                    canonicity_prunes=0,
                                    infeasible_prunes=11916)
    verdict, _ = is_isomorphic(out.witnesses[0], build_g30())
    assert verdict


@pytest.mark.parametrize("budget", [200, 500])
def test_deadline_cut_mid_round_leaves_no_speculative_trace(monkeypatch,
                                                            budget):
    """A deadline that passes inside the first round of the order-30
    decide search pauses every search of that lockstep round.  The first
    in visit order, cut short, ends the run; the searches after it stay
    as they were, although they ran in step with it (and at 500 nodes
    skeleton (10,10,10) has already admitted the cage).  So the
    checkpoint holds the first skeleton's nodes alone, and resuming it
    gives the pinned statistics.  The clock reads one second more at each
    look, and the round looks once per step."""
    reads = itertools.count()
    monkeypatch.setattr(search_module, "time", types.SimpleNamespace(
        monotonic=lambda: float(next(reads))))
    spec = SearchSpec(r=3, g=6, n=30)
    cut = search_order(dataclasses.replace(spec, time_budget=budget))
    assert cut.status == "budget_exceeded" and not cut.witnesses
    assert cut.stats.nodes == budget
    states = json.loads(json.dumps(cut.checkpoint))["skeletons"]
    assert [(s["started"], s["exhausted"], s["stats"]["nodes"])
            for s in states] == [(True, False, budget)] + [
                (False, False, 0)] * (len(states) - 1)
    resumed = search_order(spec, checkpoint=json.loads(json.dumps(
        cut.checkpoint)))
    assert resumed.status == "found"
    assert resumed.stats == SearchStats(nodes=31289, girth_prunes=52983,
                                        canonicity_prunes=0,
                                        infeasible_prunes=11916)


def _take_step(search):
    """Pop the exhausted frames of a search, as a round does, and take
    its next combination: (frame, combination), or None when the
    skeleton is exhausted."""
    while search.stack:
        frame = search.stack[-1]
        if frame.next_idx < len(frame.combos):
            frame.next_idx += 1
            return frame, frame.combos[frame.next_idx - 1]
        search.stack.pop()
        if search.stack:
            search._pop_batch()
    return None


def _degree_state(search):
    return (search.deg, search.deficient.tolist(), search.base.tolist(),
            search.n_deficient)


@pytest.mark.parametrize("kwargs,parts,steps", [
    (dict(r=3, g=5, n=20), [(15, 5), (12, 8)], 925),
    (dict(r=3, g=5, n=20), [(10, 10), (10, 5, 5), (9, 6, 5)], 508),
    (dict(r=3, g=4, n=12, mode="enumerate", branch_policy="focus"),
     [(8, 4), (6, 6)], 1179),
], ids=["3-5-20-decide", "3-5-20-decide-three", "3-4-12-focus"])
def test_stacked_step_matches_each_search_alone(monkeypatch, kwargs, parts,
                                                steps):
    """Searches on different skeletons, walked node by node along their
    real trees until the smallest one is exhausted, take every step
    together (_descend_together), and copies of them take it alone
    (_descend).  Each gets the result, distances, degree state and
    frames it gets alone, and the stacked free pairs and slack of each
    child that branches equal its own _free_slack.  Every tenth step is
    also recounted from scratch.  Some steps stack vertices that need
    different numbers of partners, so some rows of the stacked update
    are padded, and three searches catch a stack read in the wrong row
    order."""
    spec = SearchSpec(**kwargs)
    runs = [_SkeletonSearch(spec, sk) for sk in arc_skeletons(spec.n, spec.g)
            if sk.parts in parts]
    for run in runs:
        run.visit(0, None)  # expand the root
    stacked = []
    real = search_module._stacked_free_slack

    def recording(*args):
        stacked.append(real(*args))
        return stacked[-1]

    monkeypatch.setattr(search_module, "_stacked_free_slack", recording)
    padded = 0
    for step in range(steps):
        together = [run.fork() for run in runs]
        alone = [run.fork() for run in runs]
        taken = [_take_step(s) for s in together]
        assert all(taken)
        padded += len({len(combo) for _, combo in taken}) > 1
        assert [(f.vertex, c) for f, c in taken] == [
            (f.vertex, c) for f, c in map(_take_step, alone)]
        got = search_module._descend_together(
            [(i, s, frame, combo)
             for i, (s, (frame, combo)) in enumerate(zip(together, taken))])
        for i, (s, t, (frame, combo)) in enumerate(zip(together, alone,
                                                       taken)):
            assert got[i] == t._descend(frame, combo)
            assert (s.dist == t.dist).all()
            assert _degree_state(s) == _degree_state(t)
            assert s.edges == t.edges
            assert [(f.vertex, f.combos) for f in s.stack] == [
                (f.vertex, f.combos) for f in t.stack]
            if got[i][0] != "complete":
                free, slack = t._free_slack()
                assert (stacked[-1][0][i] == free).all()
                assert (stacked[-1][1][i] == slack).all()
            if step % 10 == 0:
                _check_against_recount(
                    s, _arc_matrix(s.skeleton),
                    [(v, ps) for _, v, ps in s._undo], combos=False)
        for run in runs:
            run.visit(1, None)
    assert len(stacked) > steps // 2
    assert padded > steps // 10
    assert sorted(run.visit(1, None)[1] for run in runs) == [
        "exhausted"] + ["paused"] * (len(runs) - 1)


def test_lex_round_steps_each_search_alone(monkeypatch):
    """A "lex" round, budgeted or not, takes every step through
    _descend, one search at a time: the orderly test on every child
    leaves a stacked step nothing to save.  A "focus" round of the same
    spec does descend together, and both give their pinned statistics."""
    policies = []
    real = search_module._descend_together

    def recording(steps):
        policies.append(steps[0][1].policy)
        return real(steps)

    monkeypatch.setattr(search_module, "_descend_together", recording)
    for policy, budget in (("lex", None), ("lex", 1000), ("focus", None)):
        out = search_order(SearchSpec(r=3, g=4, n=12, mode="enumerate",
                                      branch_policy=policy,
                                      node_budget=budget))
        assert out.stats.nodes == budget or out.stats == PINNED_STATS[policy]
        assert set(policies) <= {"focus"}
    assert policies


def _arc_matrix(skeleton):
    n = sum(skeleton.parts)
    arc_mat = np.zeros((n, n), dtype=bool)
    for a, b in skeleton.arcs:
        arc_mat[a, b] = True
    return arc_mat


def _check_against_recount(search, arc_mat, batches, combos=True):
    """The edges, degree state (degrees, deficient mask, slack base and
    deficient count), distances, free pairs, slack, candidates and (with
    ``combos``) combinations of ``search`` equal a from-scratch recount
    of the skeleton arcs plus the edge batches.  Every complete vertex
    reads a slack of at least n, above every deficient one, so the
    argmin over all vertices is the first deficient one of least
    slack.  Under "lex" the edge list is sorted, as the orderly test
    needs."""
    n, r, g = search.n, search.spec.r, search.spec.g
    adj = np.zeros((n, n), dtype=bool)
    deg = np.zeros(n, dtype=int)
    for v, partners in batches:
        for u in partners:
            adj[v, u] = adj[u, v] = True
            deg[u] += 1
        deg[v] += len(partners)
    assert sorted(search.edges) == sorted(zip(*np.nonzero(np.triu(adj))))
    if search.policy == "lex":
        assert search.edges == sorted(search.edges)
    mask = deg < r
    assert search.deg == deg.tolist()
    assert search.deficient.tolist() == mask.tolist()
    assert search.base.tolist() == np.where(mask, deg - r, n).tolist()
    assert search.n_deficient == int(mask.sum())
    trans = arc_mat | adj
    assert (search.dist == _reference_dist(trans, g - 1)).all()
    free = _reference_free(search, trans, adj)
    got_free, got_slack = search._free_slack()
    assert (got_free == free).all()
    rows = [x for x in range(n) if deg[x] < r]
    slack = [
        sum(1 for y in rows if free[x, y]) - (r - deg[x]) for x in rows
    ]
    assert got_slack[rows].tolist() == slack
    complete = [x for x in range(n) if deg[x] >= r]
    assert all(got_slack[x] >= n for x in complete)
    assert all(s <= n - 2 for s in slack)
    if rows:
        assert got_slack.argmin() == rows[slack.index(min(slack))]
    for x in rows:
        cands = [y for y in rows if free[x, y]]
        assert search._candidates(x, got_free).tolist() == cands
        if combos:
            assert search._combos_for(
                x, got_free
            ) == _reference_combos(search, trans, x, cands)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incremental_distances_match_matrix_powers(data):
    """Batches that complete a deficient vertex v, with its missing
    partners drawn from every vertex not adjacent to it (so they may be
    near each other or near v, and may already be complete, so their
    degree crosses r or passes it), and undos of whole batches; after
    every step the distances, the free pairs, the slack, the candidates
    and the combinations equal a from-scratch recount.  Under "lex" v is
    the least deficient vertex and its partners lie above it, as in the
    search."""
    g = data.draw(st.integers(1, 7), label="g")
    n = data.draw(st.integers(max(g, 2), g + 7), label="n")
    skeletons = list(arc_skeletons(n, g))
    skeleton = skeletons[data.draw(st.integers(0, len(skeletons) - 1))]
    r = data.draw(st.integers(1, 4), label="r")
    spec = SearchSpec(
        r=r, g=g, n=n,
        branch_policy=data.draw(st.sampled_from(["lex", "focus"])),
    )
    search = _SkeletonSearch(spec, skeleton)
    arc_mat = _arc_matrix(skeleton)
    batches = []
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        if batches and data.draw(st.booleans(), label="undo"):
            search._pop_batch()
            batches.pop()
        else:
            adj = np.zeros((n, n), dtype=bool)
            for v, partners in batches:
                adj[v, list(partners)] = adj[list(partners), v] = True
            deg = adj.sum(axis=1)
            deficient = [x for x in range(n) if deg[x] < r]
            if not deficient:
                continue
            if spec.branch_policy == "lex":
                v = deficient[0]
            else:
                v = data.draw(st.sampled_from(deficient), label="v")
            options = [u for u in range(n) if u != v and not adj[v, u]
                       and (spec.branch_policy != "lex" or u > v)]
            need = r - int(deg[v])
            if len(options) < need:
                continue
            partners = tuple(sorted(data.draw(
                st.lists(st.sampled_from(options), min_size=need,
                         max_size=need, unique=True),
                label="partners",
            )))
            search._add_batch(v, partners)
            batches.append((v, partners))
        _check_against_recount(search, arc_mat, batches)


def _largest_update_sum(dist, v, partners):
    """The largest entry of the outer sum to_v[a] + from_v[b] that
    _add_batch forms for this batch (see _SkeletonSearch), in Python
    integers."""
    d = dist.astype(np.int64)
    to_v = np.minimum(d[:, v], d[:, list(partners)].min(axis=1) + 1)
    from_v = np.minimum(d[v], d[list(partners)].min(axis=0) + 1)
    return int(to_v.max()) + int(from_v.max())


@pytest.mark.parametrize("parts,g,batches,limits", [
    ((260,), 3,
     [(0, (52, 104, 156)), (1, (52, 208, 257)), (105, (52, 157, 258)),
      (200, (0, 3, 150))],
     (257, 260, 4)),
    ((70, 70), 70,
     [(0, (28, 56, 84)), (1, (28, 57, 112)), (30, (28, 85, 113)),
      (100, (0, 2, 58))],
     (70, 140, 138)),
], ids=["n260-g3", "n140-g70"])
def test_search_state_holds_past_narrow_dtype_limits(parts, g, batches,
                                                     limits):
    """``limits`` are the largest count of free deficient partners, slack
    base and update sum the steps meet.  On one 260-cycle at g = 3 a
    vertex counts 257 free deficient partners, past 255, and a complete
    vertex's slack base holds 260, past 127, so it still reads above
    every deficient slack.  On two 70-cycles at g = 70, distances
    between the cycles sit at the cap 69 until edges join them, and the
    update forms sums up to 138, past 127.  Every batch completes its
    vertex (r = 3); the third makes a partner of degree 2 complete and
    the fourth takes a complete partner to degree 4.  After every batch,
    and after every undo back to the bare skeleton, the state still
    equals a from-scratch recount."""
    n = sum(parts)
    skeleton = next(s for s in arc_skeletons(n, g) if s.parts == parts)
    search = _SkeletonSearch(SearchSpec(r=3, g=g, n=n), skeleton)
    arc_mat = _arc_matrix(skeleton)
    done, counts, bases, sums = [], [], [], []

    def check():
        _check_against_recount(search, arc_mat, done, combos=False)
        free, _ = search._free_slack()
        counts.append(int((free & search.deficient).sum(axis=1).max()))
        bases.append(int(search.base.max()))

    check()
    for v, partners in batches:
        sums.append(_largest_update_sum(search.dist, v, partners))
        search._add_batch(v, partners)
        done.append((v, partners))
        check()
    while done:
        search._pop_batch()
        done.pop()
        check()
    assert (max(counts), max(bases), max(sums)) == limits


@pytest.mark.parametrize("partners", [(), (7,), (7, 9, 11)],
                         ids=["empty", "leaves-v-deficient", "overfills-v"])
def test_add_batch_rejects_a_batch_that_does_not_complete_v(partners):
    """_add_batch adds exactly the edges that complete v.  Vertex 3 has
    degree 1 of r = 3, so an empty batch, one partner (degree 2) and
    three (degree 4) raise ValueError, and the state is as before."""
    spec = SearchSpec(r=3, g=5, n=20)
    search = _SkeletonSearch(spec, next(arc_skeletons(20, 5)))
    search._add_batch(0, (3, 10, 15))
    before = (search.dist, search.dist.copy(), list(search.deg),
              search.base.copy(), search.deficient.copy(),
              search.n_deficient, list(search._undo))
    with pytest.raises(ValueError):
        search._add_batch(3, partners)
    dist, dist_copy, deg, base, deficient, n_deficient, undo = before
    assert search.dist is dist and (search.dist == dist_copy).all()
    assert search.deg == deg
    assert (search.base == base).all()
    assert (search.deficient == deficient).all()
    assert search.n_deficient == n_deficient
    assert len(search._undo) == len(undo)
    assert all(a is b for a, b in zip(search._undo, undo))


def test_checkpoint_replay_rebuilds_search_state(monkeypatch):
    """Replaying a mid-run checkpoint rebuilds, skeleton by skeleton, the
    distances, free pairs, degree state (degrees, deficient mask, slack
    base and deficient count) and frames that the interrupted run held
    at the same node.  A round runs on copies, so the searches the run
    ends with are the last copy of each skeleton, or the search that
    __init__ made when none was copied."""
    made, last = [], {}

    class Recording(_SkeletonSearch):
        def __init__(self, spec, skeleton):
            super().__init__(spec, skeleton)
            made.append(self)
            last[skeleton.parts] = self

        def fork(self):
            twin = super().fork()
            last[self.skeleton.parts] = twin
            return twin

    spec = SearchSpec(r=3, g=5, n=20, mode="decide", branch_policy="focus",
                      node_budget=3000)
    monkeypatch.setattr(search_module, "_SkeletonSearch", Recording)
    cut = search_order(spec)
    monkeypatch.undo()
    assert cut.status == "budget_exceeded"
    states = json.loads(json.dumps(cut.checkpoint))["skeletons"]
    live = list(last.values())
    assert len(live) == len(made) == len(states)
    assert any(run is not first for run, first in zip(live, made))
    assert any(run.edges for run in live)
    for run, state in zip(live, states):
        fresh = _SkeletonSearch(spec, run.skeleton)
        fresh.restore(state)
        assert fresh.edges == run.edges
        assert (fresh.dist == run.dist).all()
        fresh_free, fresh_slack = fresh._free_slack()
        run_free, run_slack = run._free_slack()
        assert (fresh_free == run_free).all()
        assert (fresh_slack == run_slack).all()
        assert fresh.deg == run.deg
        assert (fresh.deficient == run.deficient).all()
        assert (fresh.base == run.base).all()
        assert fresh.n_deficient == run.n_deficient
        assert len(fresh._undo) == len(run._undo)
        assert [(f.vertex, f.next_idx, f.combos) for f in fresh.stack] == [
            (f.vertex, f.next_idx, f.combos) for f in run.stack
        ]


def _witness_digest(witnesses):
    payload = json.dumps([[list(e) for e in w.sorted_edges()]
                          for w in witnesses])
    return hashlib.sha256(payload.encode()).hexdigest()


# sha256 of the (3,1,4)@12 witness edge lists, in order, recorded before
# emissions were deduplicated by their least image under the skeleton group
PINNED_WITNESSES = {
    "focus": "23cf57b594befc0099e25518f0f66a6833edd54d01963538bfba23a8b9e4459d",
    "lex": "53d82a687233631e2dd7e63216fa864e09987ba4788b1b94ac576a0b1a1d39e7",
}
PINNED_STATS = {
    "focus": SearchStats(nodes=6121, girth_prunes=2065, canonicity_prunes=0,
                         infeasible_prunes=925),
    "lex": SearchStats(nodes=1509, girth_prunes=687, canonicity_prunes=366,
                       infeasible_prunes=462),
}


def _resume_chain(spec, cuts):
    """Run spec cut at each node count of ``cuts`` in turn, every hop
    resumed from the previous hop's checkpoint after a JSON round trip,
    then to the end.  Returns the last outcome and the checkpoints."""
    out = search_order(dataclasses.replace(spec, node_budget=cuts[0]))
    checkpoints = []
    for budget in cuts[1:] + (None,):
        assert out.status == "budget_exceeded", (spec, budget)
        checkpoints.append(json.loads(json.dumps(out.checkpoint)))
        out = search_order(dataclasses.replace(spec, node_budget=budget),
                           checkpoint=checkpoints[-1])
    return out, checkpoints


@pytest.mark.parametrize("policy", sorted(PINNED_WITNESSES))
def test_enumerate_witnesses_are_pinned(monkeypatch, policy):
    """Witnesses keep their edge lists and order, and the tree its
    statistics; the skeleton group names every class, so the search
    labels none canonically.  Without the group array (CANONICITY_CAP of
    1) every witness is labeled and deduped by encoding, also across
    budget cuts, where each resume labels the checkpoint's witnesses
    once to rebuild those keys, and the witnesses are the same, and so
    are the statistics of the focus tree, which rejects no isomorphs."""
    labeled = []

    def spy(g):
        labeled.append(g)
        return canonical_form(g)

    monkeypatch.setattr(search_module, "canonical_form", spy)
    spec = SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy=policy)
    out = search_order(spec)
    assert _witness_digest(out.witnesses) == PINNED_WITNESSES[policy]
    assert out.stats == PINNED_STATS[policy]
    assert len(out.witnesses) == 29
    assert len(labeled) == 0
    monkeypatch.setattr(search_module, "CANONICITY_CAP", 1)
    plain = search_order(spec)
    assert _witness_digest(plain.witnesses) == PINNED_WITNESSES[policy]
    assert len(labeled) == 724
    if policy == "focus":
        assert plain.stats == out.stats
    chain, checkpoints = _resume_chain(spec, (2000, 4000, 6000))
    assert _witness_digest(chain.witnesses) == PINNED_WITNESSES[policy]
    assert chain.stats == plain.stats
    recorded = [sum(len(sk["witnesses"]) for sk in cp["skeletons"])
                for cp in checkpoints]
    assert all(recorded)
    assert len(labeled) == 2 * 724 + sum(recorded)


# node counts inside the (12,), (8,4), (6,6) and (4,4,4) skeletons of the
# (3,1,4)@12 focus tree
FOCUS_CUTS = (500, 1500, 3000, 4500)


def test_focus_resume_chain_restores_orbit_keys(monkeypatch):
    """A resumed focus enumeration rebuilds each skeleton's orbit keys
    from the checkpoint witnesses on it, so a class whose orbit
    straddles a cut is not emitted twice: a chain cut inside four
    skeletons ends with the uninterrupted witness list and statistics.
    A resume with no nodes left stops before its first visit, holding
    the searches as the next hop starts; each holds its record's
    statistics, its keys are exactly the orbits of its record's
    witnesses (none once the skeleton is exhausted), and the checkpoint
    it writes is unchanged."""
    spec = SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy="focus")
    out, checkpoints = _resume_chain(spec, FOCUS_CUTS)
    assert _witness_digest(out.witnesses) == PINNED_WITNESSES["focus"]
    assert out.stats == PINNED_STATS["focus"]
    live = []

    class Recording(_SkeletonSearch):
        def __init__(self, spec, skeleton):
            super().__init__(spec, skeleton)
            live.append(self)

    monkeypatch.setattr(search_module, "_SkeletonSearch", Recording)
    restored_keys = 0
    for cp in checkpoints:
        live.clear()
        nodes = sum(sk["stats"]["nodes"] for sk in cp["skeletons"])
        held = search_order(dataclasses.replace(spec, node_budget=nodes),
                            checkpoint=cp)
        assert held.checkpoint == cp
        for search, state in zip(live, cp["skeletons"]):
            assert search.stats.as_dict() == state["stats"]
            autos = _skeleton_autos(search.skeleton.parts)
            expected = set()
            if not state["exhausted"]:
                for w in state["witnesses"]:
                    w = search_module.graph_from_payload(w)
                    assert w.arcs == frozenset(search.skeleton.arcs)
                    expected.update(_orbit_keys(autos, w.sorted_edges()))
            assert search.keys == expected, search.skeleton.parts
            restored_keys += len(expected)
    assert restored_keys > 0


def test_emissions_reuse_least_images_and_build_one_graph_per_orbit(
    monkeypatch
):
    """Under lex the orderly test already admits one edge set per orbit,
    so (3,1,4)@12 maps its edge lists through the group once per node
    (1,509) and once more per emission, for the orbit keys a resumed run
    checks (1,538); under focus only the 29 emissions that reach a new
    orbit map theirs through the group and build a graph, not all
    724."""
    calls = {"codes": 0, "graph": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(search_module, "_image_codes",
                        counting("codes", search_module._image_codes))
    monkeypatch.setattr(search_module, "new_graph",
                        counting("graph", search_module.new_graph))
    lex = search_order(SearchSpec(r=3, g=4, n=12, mode="enumerate",
                                  branch_policy="lex"))
    assert lex.stats.nodes == 1509
    assert calls["codes"] == 1509 + len(lex.witnesses) == 1538
    calls.update(codes=0, graph=0)
    focus = search_order(SearchSpec(r=3, g=4, n=12, mode="enumerate",
                                    branch_policy="focus"))
    assert calls["codes"] == calls["graph"] == len(focus.witnesses) == 29


def _completions_by_class(spec, skeleton):
    """Every verified completion the unpruned search reaches in one
    skeleton, by canonical encoding: the keys of the emitted edge sets,
    one graph, and the orbit keys of the first emission."""
    emitted, graphs, first_keys = {}, {}, {}
    search = _SkeletonSearch(spec, skeleton)

    def record(edges):
        g = new_graph(spec.n, edges, list(skeleton.arcs))
        if (degree_profile(g).regular == (spec.r, 1)
                and girth(g).girth == spec.g):
            enc = canonical_form(g).encoding
            emitted.setdefault(enc, []).append(_edge_key(edges, spec.n))
            if enc not in graphs:
                graphs[enc] = g
                first_keys[enc] = set(_orbit_keys(search.group(), edges))
        return False

    search._admit = record
    _, status, _ = search.visit(float("inf"), None)
    assert status == "exhausted"
    return emitted, graphs, first_keys, search.stats


def _check_orbit_counts(spec, skeleton):
    """In each skeleton, a class with automorphism group A has exactly
    |G_skel| / |A| labeled completions: A is a subgroup of the group of
    the arc digraph, G_skel, and the completions of the class are one
    orbit of G_skel.  So the orbit keys of the class's first emission,
    which the emission dedupe stores, are exactly the keys of its
    emitted edge sets.  Returns the labeled count and the class count."""
    emitted, graphs, first_keys, stats = _completions_by_class(spec, skeleton)
    group = skeleton_group_order(skeleton.parts)
    for enc, keys in emitted.items():
        labeled = len(keys)
        aut = automorphism_group(graphs[enc]).order
        assert group % aut == 0
        assert labeled == group // aut, (skeleton.parts, labeled, group, aut)
        assert first_keys[enc] == set(keys)
        assert len(set(keys)) == labeled
    return sum(map(len, emitted.values())), len(emitted), stats


@pytest.mark.parametrize(
    "r,g,n,labeled,classes",
    [(3, 4, 12, 724, 29), (3, 3, 8, 753, 75), (2, 4, 10, 65, 10),
     (3, 4, 10, 3, 2)],
)
def test_labeled_completions_double_count_classes(r, g, n, labeled, classes):
    """Per skeleton, the labeled verified completions of the unpruned
    focus tree equal the sum over classes of |G_skel| / |Aut(class)|."""
    spec = SearchSpec(r=r, g=g, n=n, mode="enumerate", branch_policy="focus")
    total = [_check_orbit_counts(spec, sk)[:2] for sk in arc_skeletons(n, g)]
    assert sum(t[0] for t in total) == labeled
    assert sum(t[1] for t in total) == classes


def test_order_30_skeleton_double_counts_the_cage():
    """Skeleton (10,10,10) of (3,1,6)@30 holds the order-30 cage's whole
    orbit: 300 = 6000 / 20 labeled completions, one class."""
    spec = SearchSpec(r=3, g=6, n=30, mode="enumerate", branch_policy="focus")
    skeleton = next(s for s in arc_skeletons(30, 6) if s.parts == (10, 10, 10))
    labeled, classes, stats = _check_orbit_counts(spec, skeleton)
    assert (labeled, classes) == (300, 1)
    assert stats.nodes == 35_468


@pytest.mark.skipif(
    not __import__("os").environ.get("MIXEDCAGES_RUN_UNIQUENESS"),
    reason="over a minute of CPU; set MIXEDCAGES_RUN_UNIQUENESS=1 to run",
)
@pytest.mark.parametrize("workers", [1, 2])
def test_uniqueness_of_order_30_graph(workers):
    """Full isomorph-free enumeration at order 30: exactly one class.

    Tens of seconds per leg; RESULTS.md records the current timings.
    Under two workers the same tree runs through the process pool.
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


@pytest.mark.parametrize("kwargs", [
    dict(r=3, g=4, n=12, mode="enumerate", branch_policy="focus"),
    dict(r=3, g=5, n=20, mode="decide", branch_policy="focus"),
])
def test_unpickled_search_visits_like_the_original(kwargs):
    """A process pool sends each search to a worker pickled.  The copy
    gets the original's attributes in their order (__setstate__ sets
    them one by one) and visits on to the same statistics, edges and
    to_state() record."""
    spec = SearchSpec(**kwargs)
    for skeleton in arc_skeletons(spec.n, spec.g):
        run = _SkeletonSearch(spec, skeleton)
        run.visit(40, None)
        copy = pickle.loads(pickle.dumps(run))
        assert list(vars(copy)) == list(vars(run))
        for search in (run, copy):
            search.visit(300, None)
        assert copy.stats == run.stats
        assert copy.edges == run.edges
        assert copy.to_state() == run.to_state()


def test_search_records_are_immutable_tuples():
    check_result_record(next(arc_skeletons(4, 2)), (
        "ArcSkeleton(parts=(4,), arcs=((0, 1), (1, 2), (2, 3), (3, 0)))"))
    check_result_record(determine_cage_number(3, 3, 6), (
        "CageNumber(r=3, z=1, g=3, value=6, provenance='bound-matched', "
        "witness=MixedGraph(n=6, edges=9, arcs=6), exhausted_below=())"))
    # a record that holds its witness list is unhashable
    check_result_record(
        search_order(SearchSpec(r=3, g=6, n=29, mode="decide")),
        "SearchOutcome(status='exhausted', witnesses=[], stats=SearchStats("
        "nodes=0, girth_prunes=0, canonicity_prunes=0, infeasible_prunes=0),"
        " checkpoint=None)", hashable=False)
