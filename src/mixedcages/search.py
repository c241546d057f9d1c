"""Exhaustive search for (r,1,g)-graphs of minimum order.

With out-degree and in-degree 1, the arcs of a candidate graph form a
permutation digraph: a disjoint union of directed cycles.  Every arc
cycle is a mixed cycle, so each cycle needs length >= g, and the arc
structure is determined up to isomorphism by a partition of n into
parts >= g.  The search therefore fixes one canonical arc skeleton per
partition and extends it with undirected edges.

Edge completion proceeds one vertex at a time: pick a deficient vertex
and branch over the sorted combinations of its remaining partners,
which makes every reachable edge set appear along exactly one path.
Enumerate mode picks the least-index deficient vertex, keeping the
accumulated edge list sorted, and extends a partial edge set only if it
is lexicographically least in its orbit under the skeleton's
automorphism group (cycle rotations and swaps of equal-length cycles),
so the output has one representative per isomorphism class.  Decide
mode instead completes the most constrained vertex first, which
surfaces contradictions far earlier.  Pruning is exact distance
filtering for cycles through new edges, read from a capped directed
distance matrix that each completed vertex updates once for its whole
batch of new edges and backtracking restores from an undo stack;
degree-demand feasibility against the partners still joinable at
girth-compatible distance, read from a matrix of free pairs kept by the
same update; and a parity cut.

One driver serves every run: it visits the pending skeletons in
rounds, each visit a node quota on one skeleton, and merges the visits
in skeleton order, whether they ran in process or in a pool of worker
processes, so results never depend on the number of workers.  Searches
are resumable: the depth-first position is the list of combination
indices per level, and combination lists are recomputed
deterministically on replay, so a budget-interrupted run serializes to
a small checkpoint and the resumed run reproduces identical statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations, product
from math import comb as _comb

import numpy as _np

from .bounds import ahm_bound
from .girth import girth
from .graphs import MixedGraph, Pair, degree_profile, new_graph
from .isomorphism import canonical_form

CHECKPOINT_FORMAT = "mixedcages-checkpoint"
CHECKPOINT_VERSION = 1

_INF = float("inf")


class CheckpointError(ValueError):
    """A checkpoint that cannot be resumed: malformed, or its recorded
    path does not replay in the search tree."""


class InconclusiveError(ValueError):
    """Cage-number determination hit its order cap or budget.

    Carries the orders proven empty before the run stopped.
    """

    def __init__(self, message: str, exhausted_orders: tuple[int, ...]) -> None:
        super().__init__(message)
        self.exhausted_orders = exhausted_orders


@dataclass(frozen=True)
class SearchSpec:
    """Parameters for one fixed-order search.

    ``mode`` is "decide" (stop at the first witness) or "enumerate"
    (all witnesses up to isomorphism).  Node budgets are deterministic;
    wall-clock budgets are best effort.  In decide mode skeletons are
    served round-robin in quanta of ``rotation_quantum`` nodes so a
    witness-free skeleton cannot stall the verdict; enumerate mode
    exhausts skeletons in order.  ``canonicity_cap`` bounds the size of
    skeleton automorphism groups used for orderly rejection; a skeleton
    with a larger group runs without interior rejection and relies on
    emission-time deduplication.
    """

    r: int
    g: int
    n: int
    z: int = 1
    mode: str = "decide"
    node_budget: int | None = None
    time_budget: float | None = None
    rotation_quantum: int = 1_000
    canonicity_cap: int = 100_000
    branch_policy: str = "auto"

    def __post_init__(self) -> None:
        if self.z != 1:
            raise ValueError("search supports out-degree z = 1 only")
        if self.r < 1:
            raise ValueError(f"edge-degree must be >= 1, got {self.r}")
        if self.g < 1:
            raise ValueError(f"girth must be >= 1, got {self.g}")
        if self.n < self.g:
            raise ValueError(f"order {self.n} below girth {self.g}")
        if self.mode not in ("decide", "enumerate"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.branch_policy not in ("auto", "lex", "focus"):
            raise ValueError(f"unknown branch policy {self.branch_policy!r}")

    def effective_policy(self) -> str:
        """Vertex-selection policy.

        "lex" completes the least-index deficient vertex, which keeps
        the accumulated edge list sorted and enables orderly
        isomorph rejection -- required for enumerate mode.  "focus"
        completes the most constrained vertex first (fail-first), which
        surfaces contradictions much earlier and is the default for
        decide mode, where isomorph rejection is unnecessary.
        """
        if self.branch_policy != "auto":
            return self.branch_policy
        return "lex" if self.mode == "enumerate" else "focus"

    def key(self) -> dict:
        """Fields a checkpoint must match to be resumable: anything that
        shapes the search tree or the rotation schedule."""
        return {"r": self.r, "g": self.g, "n": self.n, "z": self.z,
                "mode": self.mode, "policy": self.effective_policy(),
                "rotation_quantum": self.rotation_quantum,
                "canonicity_cap": self.canonicity_cap}


@dataclass
class SearchStats:
    nodes: int = 0
    girth_prunes: int = 0
    canonicity_prunes: int = 0
    infeasible_prunes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "nodes": self.nodes,
            "girth_prunes": self.girth_prunes,
            "canonicity_prunes": self.canonicity_prunes,
            "infeasible_prunes": self.infeasible_prunes,
        }

    @staticmethod
    def from_dict(d: dict) -> SearchStats:
        return SearchStats(
            nodes=d["nodes"],
            girth_prunes=d["girth_prunes"],
            canonicity_prunes=d["canonicity_prunes"],
            infeasible_prunes=d["infeasible_prunes"],
        )

    def add(self, other: SearchStats) -> None:
        self.nodes += other.nodes
        self.girth_prunes += other.girth_prunes
        self.canonicity_prunes += other.canonicity_prunes
        self.infeasible_prunes += other.infeasible_prunes


@dataclass
class SearchOutcome:
    """Result of search_order.

    ``status`` is "found", "exhausted", or "budget_exceeded"; in the
    last case ``checkpoint`` is a JSON-serializable frontier accepted by
    ``search_order(spec, checkpoint=...)``.  "exhausted" with no
    witnesses is a proof that no (r,1,g)-graph of this order exists.
    """

    status: str
    witnesses: list[MixedGraph]
    stats: SearchStats
    checkpoint: dict | None = None


@dataclass(frozen=True)
class CageNumber:
    """A determined minimum order, with provenance.

    "bound-matched" means a witness exists at the closed-form lower
    bound, so no smaller order needed searching; "search-determined"
    records the orders exhaustively proven empty in ``exhausted_below``.
    """

    r: int
    z: int
    g: int
    value: int
    provenance: str
    witness: MixedGraph
    exhausted_below: tuple[int, ...]


@dataclass(frozen=True)
class ArcSkeleton:
    """Canonical arc layout for one partition: consecutive blocks, each
    inducing a directed cycle."""

    parts: tuple[int, ...]
    arcs: tuple[Pair, ...]


def graph_payload(g: MixedGraph) -> dict:
    """Lossless JSON-ready form of a graph (checkpoints, CLI reports)."""
    return {
        "n": g.n,
        "edges": [list(e) for e in g.sorted_edges()],
        "arcs": [list(a) for a in g.sorted_arcs()],
    }


def graph_from_payload(d: dict) -> MixedGraph:
    return new_graph(
        d["n"],
        [tuple(e) for e in d["edges"]],
        [tuple(a) for a in d["arcs"]],
    )


def arc_skeletons(n: int, g: int):
    """Yield the arc skeletons for order n and girth target g.

    One skeleton per partition of n into parts >= max(g, 2), parts
    sorted descending, partitions in descending lexicographic order.
    (Length-1 arc cycles would be loops; simple mixed graphs exclude
    them, hence the floor of 2.)
    """
    for parts in _partitions(n, max(g, 2)):
        yield ArcSkeleton(parts, tuple(_skeleton_arcs(parts)))


def _partitions(n: int, min_part: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), min_part - 1, -1):
        rest = n - first
        if rest == 0:
            yield (first,)
        elif rest >= min_part:
            for sub in _partitions(rest, min_part, first):
                yield (first,) + sub


def _block_starts(parts: tuple[int, ...]) -> list[int]:
    starts, acc = [], 0
    for p in parts:
        starts.append(acc)
        acc += p
    return starts


def _skeleton_arcs(parts: tuple[int, ...]) -> list[Pair]:
    arcs = []
    for start, length in zip(_block_starts(parts), parts):
        for i in range(length):
            arcs.append((start + i, start + (i + 1) % length))
    return arcs


def skeleton_group_order(parts: tuple[int, ...]) -> int:
    """|Aut| of the labeled skeleton: rotations of each cycle times
    permutations of equal-length cycles."""
    total = 1
    for p in parts:
        total *= p
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    for c in counts.values():
        for k in range(2, c + 1):
            total *= k
    return total


def _skeleton_autos(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All skeleton automorphisms as vertex image tuples."""
    n = sum(parts)
    starts = _block_starts(parts)
    by_len: dict[int, list[int]] = {}
    for idx, length in enumerate(parts):
        by_len.setdefault(length, []).append(idx)
    classes = [by_len[length] for length in sorted(by_len)]
    class_maps = [list(permutations(c)) for c in classes]
    out = []
    for assignment in product(*class_maps):
        sigma: dict[int, int] = {}
        for cls, mapped in zip(classes, assignment):
            for src, dst in zip(cls, mapped):
                sigma[src] = dst
        for rots in product(*[range(p) for p in parts]):
            img = [0] * n
            for i, length in enumerate(parts):
                s, d, r = starts[i], starts[sigma[i]], rots[i]
                for pos in range(length):
                    img[s + pos] = d + (pos + r) % length
            out.append(tuple(img))
    return out


# ---------------------------------------------------------------------------
# canonicity under the skeleton group


def _map_edge(gamma: tuple[int, ...], e: Pair) -> Pair:
    a, b = gamma[e[0]], gamma[e[1]]
    return (a, b) if a < b else (b, a)


def _full_compare(
    gamma: tuple[int, ...], edges: tuple[Pair, ...]
) -> tuple[int, Pair | None]:
    """Compare sorted(gamma(edges)) against edges.

    Returns (-1/0/+1, d) with d the gamma-side value at the first
    difference (None on ties); d feeds the incremental bookkeeping.
    """
    mapped = sorted(_map_edge(gamma, e) for e in edges)
    for m, e in zip(mapped, edges):
        if m < e:
            return -1, m
        if m > e:
            return 1, m
    return 0, None


class _CanonicityTracker:
    """Incremental lexicographic-minimality test under the skeleton group.

    Each frame stores, per group element, whether it ties the current
    edge list setwise or strictly exceeds it, plus the exact deciding
    value for strict elements.  Every accepted batch sorts after all
    earlier edges, so a tie needs only its mapped batch compared with
    the batch, and a strict element can only flip when a mapped batch
    edge drops below its deciding value.
    """

    def __init__(self, autos: list[tuple[int, ...]]) -> None:
        self.autos = autos

    def root(self) -> tuple[list[int], list[tuple[int, Pair]]]:
        return list(range(len(self.autos))), []

    def child(
        self,
        edges: tuple[Pair, ...],
        batch: tuple[Pair, ...],
        ties: list[int],
        strict: list[tuple[int, Pair]],
    ) -> tuple[list[int], list[tuple[int, Pair]]] | None:
        """State after appending a sorted batch; None when not minimal."""
        batch_list = list(batch)
        new_ties: list[int] = []
        new_strict: list[tuple[int, Pair]] = []
        for gi in ties:
            gamma = self.autos[gi]
            mapped = sorted(_map_edge(gamma, e) for e in batch)
            if mapped < batch_list:
                return None
            if mapped == batch_list:
                new_ties.append(gi)
            else:
                verdict, d = _full_compare(gamma, edges)
                if verdict <= 0 or d is None:
                    raise RuntimeError(
                        "canonicity tracker: a tie whose mapped batch "
                        "sorts above the batch must compare greater"
                    )
                new_strict.append((gi, d))
        for gi, d in strict:
            gamma = self.autos[gi]
            m = min(_map_edge(gamma, e) for e in batch)
            if m >= d:
                new_strict.append((gi, d))
                continue
            verdict, d2 = _full_compare(gamma, edges)
            if verdict < 0:
                return None
            if verdict == 0:
                new_ties.append(gi)
            elif d2 is None:
                raise RuntimeError(
                    "canonicity tracker: a strict comparison lacks its "
                    "deciding value"
                )
            else:
                new_strict.append((gi, d2))
        return new_ties, new_strict


def _is_lex_min_full(
    edges: tuple[Pair, ...], autos: list[tuple[int, ...]]
) -> bool:
    """Reference full-scan implementation (kept for tests)."""
    lst = list(edges)
    for gamma in autos:
        if sorted(_map_edge(gamma, e) for e in edges) < lst:
            return False
    return True


# ---------------------------------------------------------------------------
# per-skeleton depth-first search


class _Frame:
    __slots__ = ("vertex", "combos", "next_idx", "batched", "ties", "strict")

    def __init__(self, vertex, combos, batched, ties, strict):
        self.vertex = vertex
        self.combos = combos
        self.next_idx = 0
        self.batched = batched  # a batch was applied to enter this frame
        self.ties = ties
        self.strict = strict


def _skeleton_distances(parts: tuple[int, ...], cap: int) -> _np.ndarray:
    """Capped directed distances of a bare skeleton: along each cycle,
    ``cap`` between different cycles."""
    n = sum(parts)
    dist = _np.full((n, n), cap, dtype=_np.int32)
    for start, length in zip(_block_starts(parts), parts):
        steps = _np.arange(length)
        block = (steps[None, :] - steps[:, None]) % length
        dist[start:start + length, start:start + length] = _np.minimum(
            block, cap
        )
    return dist


class _SkeletonSearch:
    """Suspendable edge-completion search over one arc skeleton.

    ``dist[a, b]`` is the length of a shortest mixed path from a to b
    (arcs forward, edges either way), capped at g-1: the girth filters
    only ask whether a distance is at most g-2 or g-3.  ``free[x, y]``
    says an edge {x, y} could still be added: x != y, x and y are not
    adjacent, and no path of length <= g-2 joins them either way.

    Every edge of a batch meets the vertex v it completes.  A shortest
    path passes v at most once, so it uses at most two new edges, and
    those two meet at v.  The new distances into and out of v are
    therefore ``to_v[a] = min(dist[a, v], min_u dist[a, u] + 1)`` and
    ``from_v[b] = min(dist[v, b], min_u dist[u, b] + 1)`` over the
    partners u, and every other distance is
    ``min(dist[a, b], to_v[a] + from_v[b])``: one outer sum per batch.
    Capped inputs give exact sums below the cap.  The same sum clears
    the pairs of ``free`` it brings near.  One undo entry per batch keeps
    the replaced matrices.
    """

    def __init__(self, spec: SearchSpec, skeleton: ArcSkeleton) -> None:
        self.spec = spec
        self.skeleton = skeleton
        n = spec.n
        self.n = n
        self.cap = spec.g - 1
        self.dist = _skeleton_distances(skeleton.parts, self.cap)
        near = self.dist < self.cap
        self.free = ~(near | near.T)
        _np.fill_diagonal(self.free, False)
        self._undo: list[tuple] = []
        self.deg = _np.zeros(n, dtype=_np.int32)
        self.edges: list[Pair] = []  # under "lex" policy: stays sorted
        self.exhausted = False
        self.started = False
        self.policy = spec.effective_policy()
        self.tracker: _CanonicityTracker | None = None
        if (
            self.policy == "lex"
            and skeleton_group_order(skeleton.parts) <= spec.canonicity_cap
        ):
            self.tracker = _CanonicityTracker(_skeleton_autos(skeleton.parts))
        self.stack: list[_Frame] = []

    # -- state mutation

    def _add_batch(self, v: int, partners: tuple[int, ...]) -> None:
        """Add the edges {v, u} for every partner u."""
        d = self.dist
        # per-partner slices: fancy indexing costs more at this size
        to_u, from_u = d[:, partners[0]], d[partners[0]]
        for u in partners[1:]:
            to_u = _np.minimum(to_u, d[:, u])
            from_u = _np.minimum(from_u, d[u])
        to_v = _np.minimum(d[:, v], to_u + 1)
        from_v = _np.minimum(d[v], from_u + 1)
        via = to_v[:, None] + from_v
        far = via >= self.cap
        self._undo.append((d, self.free, v, partners))
        self.dist = _np.minimum(d, via, out=via)
        free = self.free & far
        free &= far.T
        deg = self.deg
        for u in partners:
            free[v, u] = free[u, v] = False
            deg[u] += 1
        deg[v] += len(partners)
        self.free = free
        self.edges.extend((v, u) if v < u else (u, v) for u in partners)

    def _pop_batch(self) -> None:
        self.dist, self.free, v, partners = self._undo.pop()
        del self.edges[-len(partners):]
        deg = self.deg
        for u in partners:
            deg[u] -= 1
        deg[v] -= len(partners)

    # -- search proper

    def _slack(self) -> tuple[_np.ndarray, _np.ndarray]:
        """Deficient vertices, and for each the number of deficient
        partners it could still take at girth-compatible distance minus
        its remaining demand."""
        r = self.spec.r
        deficient = self.deg < r
        rows = deficient.nonzero()[0]
        avail = (self.free[rows] & deficient).sum(axis=1)
        return rows, avail - (r - self.deg[rows])

    def _candidates(self, v: int) -> _np.ndarray:
        """Partners that can take an edge to v without closing a cycle
        shorter than g (single-edge criterion, exact).  Under "lex" the
        completion order restricts partners to u > v."""
        ok = self.free[v] & (self.deg < self.spec.r)
        if self.policy == "lex":
            ok[: v + 1] = False
        return ok.nonzero()[0]

    def _combos_for(self, v: int) -> tuple[list[tuple[int, ...]], int]:
        """Sorted partner combinations for completing vertex v, plus the
        count of raw combinations eliminated by girth constraints.

        The girth filtering here is exact, not merely necessary: every
        new edge of a batch is incident to v, so a too-short cycle
        through the batch uses either one new edge plus an old return
        path (the per-candidate distance criterion, cap g-2) or two new
        edges meeting at v plus an old path avoiding v (the pairwise
        criterion, cap g-3).  Three new edges cannot lie on one cycle
        since the cycle would visit v twice, and old paths cannot use
        new edges without passing through v.  The pairwise criterion
        reads the distances of the current graph, v included: a path of
        length <= g-3 between two candidates that ran through v would
        put one of them within g-4 of v, and then it would not be a
        candidate.
        """
        need = self.spec.r - int(self.deg[v])
        idx = self._candidates(v)
        if len(idx) < need:
            return [], 0
        close = self.dist[idx[:, None], idx] < self.cap - 1
        bad = (close | close.T).tolist()
        cands = idx.tolist()

        out: list[tuple[int, ...]] = []
        chosen: list[int] = []

        def rec(start: int) -> None:
            if len(chosen) == need:
                out.append(tuple(cands[i] for i in chosen))
                return
            remaining = need - len(chosen)
            for i in range(start, len(cands) - remaining + 1):
                row = bad[i]
                if not any(row[j] for j in chosen):
                    chosen.append(i)
                    rec(i + 1)
                    chosen.pop()

        rec(0)
        return out, _comb(len(cands), need) - len(out)

    def _expand(
        self, batched: bool, ties: list[int], strict: list[tuple[int, Pair]]
    ) -> tuple[str, int]:
        """Test the current state and push its frame.

        Returns ("pushed" | "infeasible" | "complete", girth-pruned
        combination count).  "infeasible": some deficient vertex sees
        fewer girth-compatible deficient partners than it still needs.
        One slack count serves that test and the "focus" choice of the
        vertex to complete next, the one with the least slack; "lex"
        completes the least-index deficient vertex, whose partners then
        all sit above it, keeping the edge list sorted.
        """
        rows, slack = self._slack()
        if len(rows) == 0:
            return "complete", 0
        if slack.min() < 0:
            return "infeasible", 0
        v = int(rows[0] if self.policy == "lex" else rows[slack.argmin()])
        combos, pruned = self._combos_for(v)
        self.stack.append(_Frame(v, combos, batched, ties, strict))
        return "pushed", pruned

    def _start(self) -> tuple[str, int]:
        """Expand the root, the bare skeleton (see _expand)."""
        ties, strict = self.tracker.root() if self.tracker else ([], [])
        return self._expand(False, ties, strict)

    def _descend(
        self, frame: _Frame, combo: tuple[int, ...]
    ) -> tuple[str, int] | None:
        """Complete the frame's vertex with ``combo`` and expand the
        child (see _expand).  None, with the batch undone, when the
        grown edge list is not least in its orbit under the skeleton
        group."""
        v = frame.vertex
        self._add_batch(v, combo)
        ties, strict = frame.ties, frame.strict
        if self.tracker is not None:
            res = self.tracker.child(
                tuple(self.edges), tuple((v, u) for u in combo), ties, strict
            )
            if res is None:
                self._pop_batch()
                return None
            ties, strict = res
        return self._expand(True, ties, strict)

    def run(self, quota: float, deadline: float | None, stats: SearchStats,
            emit) -> tuple[str, int]:
        """Advance until the node quota or deadline is consumed, the
        emit callback accepts a complete graph (decide), or the skeleton
        is exhausted.  Returns ("found" | "paused" | "exhausted",
        nodes consumed this visit)."""
        if self.exhausted:
            return "exhausted", 0
        used = 0
        if not self.started:
            self.started = True
            state, pruned = self._start()
            stats.girth_prunes += pruned
            if state == "infeasible":
                stats.infeasible_prunes += 1
                self.exhausted = True
                return "exhausted", used
            if state == "complete":
                done = emit(self._graph())
                self.exhausted = True
                return ("found" if done else "exhausted"), used
        while self.stack:
            if used >= quota:
                return "paused", used
            if deadline is not None and time.monotonic() > deadline:
                return "paused", used
            frame = self.stack[-1]
            if frame.next_idx >= len(frame.combos):
                self.stack.pop()
                if frame.batched:
                    self._pop_batch()
                continue
            combo = frame.combos[frame.next_idx]
            frame.next_idx += 1
            used += 1
            stats.nodes += 1
            res = self._descend(frame, combo)
            if res is None:
                stats.canonicity_prunes += 1
                continue
            state, pruned = res
            stats.girth_prunes += pruned
            if state == "infeasible":
                stats.infeasible_prunes += 1
                self._pop_batch()
            elif state == "complete":
                done = emit(self._graph())
                self._pop_batch()
                if done:
                    return "found", used
        self.exhausted = True
        return "exhausted", used

    def _graph(self) -> MixedGraph:
        return new_graph(self.n, list(self.edges), list(self.skeleton.arcs))

    # -- suspension

    def to_state(self) -> dict:
        return {
            "parts": list(self.skeleton.parts),
            "exhausted": self.exhausted,
            "started": self.started,
            "path": [f.next_idx for f in self.stack],
        }

    def restore(self, state: dict) -> None:
        """Replay a to_state() record.  Raises CheckpointError when the
        record is malformed or its path leaves the search tree."""
        try:
            parts = tuple(state["parts"])
            exhausted, started = state["exhausted"], state["started"]
            path = state["path"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed skeleton state: {exc!r}") from None
        if parts != self.skeleton.parts:
            raise CheckpointError(
                f"skeleton state for parts {list(parts)}, "
                f"expected {list(self.skeleton.parts)}"
            )
        if type(exhausted) is not bool or type(started) is not bool:
            raise CheckpointError("exhausted and started must be booleans")
        self.exhausted = exhausted
        self.started = started
        if exhausted or not started:
            return
        if (not isinstance(path, list) or not path
                or any(type(i) is not int for i in path)):
            raise CheckpointError(
                f"path of skeleton {list(parts)} must be a non-empty "
                "list of integers"
            )
        expanded, _ = self._start()
        for depth, next_idx in enumerate(path):
            if expanded != "pushed":
                raise CheckpointError(
                    f"checkpoint replay diverged at depth {depth} of "
                    f"skeleton {list(parts)}: {expanded} after "
                    f"{len(self.edges)} edges"
                )
            frame = self.stack[-1]
            last = depth == len(path) - 1
            # an inner frame has applied combination next_idx - 1
            lowest = 0 if last else 1
            if not lowest <= next_idx <= len(frame.combos):
                raise CheckpointError(
                    f"path index {next_idx} at depth {depth} of skeleton "
                    f"{list(parts)} is outside {lowest}..{len(frame.combos)}"
                )
            frame.next_idx = next_idx
            if last:
                break
            res = self._descend(frame, frame.combos[next_idx - 1])
            if res is None:
                raise CheckpointError(
                    f"checkpoint replay diverged at depth {depth} of "
                    f"skeleton {list(parts)}: combination not canonical"
                )
            expanded, _ = res


# ---------------------------------------------------------------------------
# engine


def _visit(job: tuple) -> tuple:
    """One visit to one skeleton: ``(search, quota, deadline)`` in,
    ``(search, status, nodes used, visit stats, completed graphs)`` out.

    Only verified witnesses are kept: regular (r, 1) with girth exactly
    g.  In decide mode the first one ends the visit ("found"); in
    enumerate mode each comes with its canonical encoding, first
    occurrence within the visit only.  Module level, so a process pool
    can run it on a copy of the search.
    """
    search, quota, deadline = job
    spec = search.spec
    stats = SearchStats()
    found: list[tuple[MixedGraph, bytes | None]] = []
    forms: set[bytes] = set()

    def emit(g: MixedGraph) -> bool:
        if degree_profile(g).regular != (spec.r, spec.z):
            return False
        if girth(g).girth != spec.g:
            return False
        if spec.mode == "decide":
            found.append((g, None))
            return True
        enc = canonical_form(g).encoding
        if enc not in forms:
            forms.add(enc)
            found.append((g, enc))
        return False

    status, used = search.run(quota, deadline, stats, emit)
    return search, status, used, stats, found


def search_order(
    spec: SearchSpec, checkpoint: dict | None = None, workers: int = 1
) -> SearchOutcome:
    """Search for (r,1,g)-graphs of order exactly spec.n.

    Witnesses are verified complete graphs: regular (r, 1) with girth
    exactly g.  Pass a checkpoint from an earlier budget-exceeded
    outcome to resume; statistics accumulate across resumes and node
    budgets apply to the cumulative count.

    The search visits the pending skeletons in rounds, in index order.
    With ``workers`` > 1 a process pool runs each round's visits, and
    the results are consumed in skeleton order under the same rules, so
    status, witnesses, statistics and checkpoint do not depend on
    ``workers``.  A pool visit granted more nodes than the budget left
    it by the visits before it is rerun in process with the exact
    quota when it used them.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    stats = SearchStats()
    if spec.n * spec.r % 2 == 1:
        # an r-regular edge layer needs an even degree sum
        return SearchOutcome("exhausted", [], stats)
    skeletons = list(arc_skeletons(spec.n, spec.g))
    if not skeletons:
        return SearchOutcome("exhausted", [], stats)
    searches = [_SkeletonSearch(spec, sk) for sk in skeletons]
    witnesses: list[MixedGraph] = []
    seen_forms: set[bytes] = set()
    cursor = 0
    visit_quota_left: float | None = None
    if checkpoint is not None:
        _validate_checkpoint(spec, checkpoint, len(searches))
        try:
            stats = SearchStats.from_dict(checkpoint["stats"])
            witnesses = [graph_from_payload(p) for p in checkpoint["witnesses"]]
            seen_forms = {bytes.fromhex(h) for h in checkpoint["seen_forms"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc!r}") from None
        for search, st in zip(searches, checkpoint["skeletons"]):
            search.restore(st)
        cursor = checkpoint["cursor"]
        visit_quota_left = checkpoint["visit_quota_left"]

    deadline = None
    if spec.time_budget is not None:
        deadline = time.monotonic() + spec.time_budget
    quantum: float = spec.rotation_quantum if spec.mode == "decide" else _INF

    def budget_left() -> float:
        if spec.node_budget is None:
            return _INF
        return spec.node_budget - stats.nodes

    def cut(idx: int, quota_left: float) -> SearchOutcome:
        return SearchOutcome("budget_exceeded", witnesses, stats, {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "spec": spec.key(),
            "cursor": idx,
            "visit_quota_left": (
                None if quota_left == _INF else int(quota_left)
            ),
            "stats": stats.as_dict(),
            "skeletons": [s.to_state() for s in searches],
            "witnesses": [graph_payload(w) for w in witnesses],
            "seen_forms": sorted(f.hex() for f in seen_forms),
        })

    def drive(mapper) -> SearchOutcome:
        nonlocal cursor, visit_quota_left
        while True:
            order = [i for i in range(cursor, len(searches))
                     if not searches[i].exhausted]
            if not order:
                if cursor == 0:
                    break
                cursor = 0
                continue
            cursor = 0
            quotas = [quantum] * len(order)
            if visit_quota_left is not None:
                # a resumed search finishes its interrupted visit first
                # so the rotation schedule matches an uninterrupted run
                quotas[0], visit_quota_left = visit_quota_left, None
            granted: list[float] = []

            def jobs():
                # builtin map pulls each job after the previous result
                # is merged; a pool takes the whole round up front
                for idx, quota in zip(order, quotas):
                    granted.append(min(quota, budget_left()))
                    yield searches[idx], granted[-1], deadline

            results = mapper(_visit, jobs())
            for k, (idx, quota) in enumerate(zip(order, quotas)):
                if budget_left() <= 0:
                    return cut(idx, quota)
                search, status, used, visit_stats, found = next(results)
                exact = min(quota, budget_left())
                if granted[k] > exact and used >= exact:
                    search, status, used, visit_stats, found = _visit(
                        (searches[idx], exact, deadline)
                    )
                searches[idx] = search
                stats.add(visit_stats)
                if status == "found":
                    witnesses.extend(g for g, _ in found)
                    return SearchOutcome("found", witnesses, stats)
                for g, enc in found:
                    if enc not in seen_forms:
                        seen_forms.add(enc)
                        witnesses.append(g)
                if status == "paused" and used < quota:
                    # stopped by the global budget or the deadline
                    return cut(idx, quota - used)
        return SearchOutcome(
            "found" if witnesses else "exhausted", witnesses, stats
        )

    if workers == 1:
        return drive(map)
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return drive(pool.map)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _validate_checkpoint(spec: SearchSpec, cp: dict, n_skeletons: int) -> None:
    """A checkpoint recorded for other parameters raises ValueError; one
    that is malformed raises CheckpointError."""
    if not isinstance(cp, dict) or cp.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a search checkpoint")
    if cp.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {cp.get('version')}"
        )
    if cp.get("spec") != spec.key():
        raise ValueError(
            f"checkpoint spec {cp.get('spec')} does not match {spec.key()}"
        )
    missing = [k for k in ("cursor", "visit_quota_left", "stats",
                           "skeletons", "witnesses", "seen_forms")
               if k not in cp]
    if missing:
        raise CheckpointError(f"checkpoint lacks {missing}")
    if (not isinstance(cp["skeletons"], list)
            or len(cp["skeletons"]) != n_skeletons):
        raise CheckpointError("checkpoint skeleton list does not match")
    if type(cp["cursor"]) is not int or not 0 <= cp["cursor"] < n_skeletons:
        raise CheckpointError(f"checkpoint cursor {cp['cursor']!r} out of range")
    quota = cp["visit_quota_left"]
    if quota is not None and (type(quota) is not int or quota < 0):
        raise CheckpointError(f"checkpoint visit quota {quota!r} is invalid")


def determine_cage_number(
    r: int,
    g: int,
    n_max: int,
    node_budget: int | None = None,
    time_budget: float | None = None,
    workers: int = 1,
) -> CageNumber:
    """Smallest order admitting an (r,1,g)-graph, with witness.

    Orders below the closed-form lower bound are excluded by the bound
    itself and not searched.  Budgets apply per order; running out, or
    reaching n_max without a witness, raises InconclusiveError carrying
    the orders proven empty.  ``workers`` is passed to search_order.
    """
    lower = ahm_bound(r, g)
    exhausted: list[int] = []
    if n_max < lower:
        raise InconclusiveError(
            f"order cap {n_max} is below the lower bound {lower}",
            tuple(exhausted),
        )
    for n in range(lower, n_max + 1):
        spec = SearchSpec(
            r=r, g=g, n=n, mode="decide",
            node_budget=node_budget, time_budget=time_budget,
        )
        outcome = search_order(spec, workers=workers)
        if outcome.status == "found":
            return CageNumber(
                r=r,
                z=1,
                g=g,
                value=n,
                provenance="bound-matched" if n == lower else "search-determined",
                witness=outcome.witnesses[0],
                exhausted_below=tuple(exhausted),
            )
        if outcome.status == "exhausted":
            exhausted.append(n)
            continue
        raise InconclusiveError(
            f"budget exceeded at order {n}", tuple(exhausted)
        )
    raise InconclusiveError(
        f"no witness up to order cap {n_max}", tuple(exhausted)
    )
