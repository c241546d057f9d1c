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
distance matrix that each batch (the edges completing one vertex)
updates once, and degree-demand feasibility against the partners still
joinable at girth-compatible distance.  No parity cut runs per node:
search_order refuses an odd degree sum rn once per order.  The undo
stack holds one entry per batch, its vertex, partners and replaced
matrix, and is also the edge list.  The degrees, the mask of deficient
vertices and a slack base are kept across nodes: a batch sets its
vertex complete and moves each partner by one.  Each node derives the
free pairs from the distances and counts every vertex's free deficient
partners with one integer matrix-vector product plus the base, which
serves the feasibility cut and the fail-first choice alike.  The
distance matrix holds the narrowest signed integers its update sums fit
(int8 up to girth 64), and the counts and the base share the narrowest
signed integers that hold twice the order (int8 up to order 63).

The skeleton group is one integer array of vertex images, built when a
skeleton first needs it and only when its order is within
``CANONICITY_CAP``.  Mapping an edge list through every element at once
gives every image of it.  An isomorphism between two completions maps
arc cycles onto arc cycles of the same length, so completions of
different skeletons are never isomorphic, and two completions of one
skeleton are isomorphic exactly when a skeleton automorphism maps one
onto the other.  So the group names the classes and no canonical
labeling runs inside the search.  The least image decides the orderly
test, whose completions are least images and so one per orbit.  Other
enumerations dedupe their emissions by orbit: the first emission of an
orbit stores the sorted codes of all its images, and each later one is
a set lookup of its own, so an enumeration maps each orbit through the
group once and checks the girth of one graph per class, not every
emission.  Only a skeleton whose group exceeds the cap labels every
witness canonically and keeps the encodings as its keys instead.  So
each class is decided in one place, its skeleton search's ``_admit``,
which every completion a visit reaches and every witness a checkpoint
records passes alike.

Each skeleton's search is also the one home of its state: its
depth-first position, its class keys, its statistics and its verified
witnesses.  Searches are resumable: the depth-first position is the
list of combination indices per level, and combination lists are
recomputed deterministically on replay, so a budget-interrupted run
serializes to a small checkpoint, the list of skeleton states, and the
resumed run reproduces identical statistics.  Each restored search
admits its recorded witnesses again, which checks them and rebuilds its
keys.

One driver serves every run.  It visits the pending skeletons in
rounds, each visit a node quota on one skeleton read off the searches'
node counts, and the outcome is their summed statistics and their
witnesses in skeleton order.  Every round is one call of the one
depth-first loop, ``_round``, which visits its searches in lockstep:
each step every live search takes its next combination, and the
children are descended together, stacked by bytes joins, with one
stacked distance update (a gather each way) and one stacked pass for
the free pairs and the slack, since every small numpy call costs about
the same whatever its size.  A step with one descending search takes
the plain path, which costs about half a stacked step of one, and so
does every step of a ``lex`` enumeration, whose orderly test on every
child leaves a stacked step nothing to save.  A pool of W workers
gives worker w the searches w, w + W, ... of a round.  Either way the
searches run as copies that the driver merges in visit order under one
grant rule (search_order), so results never depend on the number of
workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from itertools import accumulate, permutations, product
from math import comb as _comb, factorial, prod

import numpy as _np

from . import __version__
from .bounds import ahm_bound
from .girth import girth
from .graphs import MixedGraph, Pair, degree_profile, new_graph
from .isomorphism import canonical_form

CHECKPOINT_FORMAT = "mixedcages-checkpoint"
CHECKPOINT_VERSION = 3
# decide-mode nodes per skeleton visit; checkpoints record it
ROTATION_QUANTUM = 1_000
# largest skeleton group kept as an array of elements; checkpoints record it
CANONICITY_CAP = 100_000

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
    """Parameters for one fixed-order search of (r,1,g)-graphs; the
    out-degree z is fixed at 1.

    ``mode`` is "decide" (stop at the first witness) or "enumerate"
    (all witnesses up to isomorphism).  Node budgets are deterministic;
    wall-clock budgets are best effort.  In decide mode skeletons are
    served round-robin in quanta of ROTATION_QUANTUM nodes so a
    witness-free skeleton cannot stall the verdict.  Enumerate mode
    exhausts skeletons in order.  CANONICITY_CAP bounds the order of the
    skeleton automorphism groups kept as an array of group elements;
    that array serves the orderly rejection of "lex" searches and the
    deduplication of enumerate emissions.  A skeleton with a larger
    group runs without interior rejection and labels every witness
    canonically.  Checkpoints record both constants (and z), so
    changing one makes old checkpoints mismatch.
    """

    r: int
    g: int
    n: int
    mode: str = "decide"
    node_budget: int | None = None
    time_budget: float | None = None
    branch_policy: str = "auto"

    def __post_init__(self) -> None:
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
        if self.node_budget is not None and self.node_budget < 0:
            raise ValueError(
                f"node budget must be >= 0, got {self.node_budget}"
            )
        # "not >= 0" rejects NaN too, which would disable the deadline
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError(
                f"time budget must be >= 0, got {self.time_budget}"
            )

    def effective_policy(self) -> str:
        """Vertex-selection policy.

        "lex" completes the least-index deficient vertex, which keeps
        the accumulated edge list sorted and enables orderly isomorph
        rejection; it is the default for enumerate mode.  "focus"
        completes the most constrained vertex first (fail-first), which
        surfaces contradictions much earlier and is the default for
        decide mode.  Either policy enumerates every class once:
        without orderly rejection, ``_SkeletonSearch._admit`` drops a
        completion whose class the skeleton's search has already met.
        """
        if self.branch_policy != "auto":
            return self.branch_policy
        return "lex" if self.mode == "enumerate" else "focus"

    def key(self) -> dict:
        """Fields a checkpoint must match to be resumable: anything that
        shapes the search tree or the rotation schedule."""
        return {"r": self.r, "g": self.g, "n": self.n, "z": 1,
                "mode": self.mode, "policy": self.effective_policy(),
                "rotation_quantum": ROTATION_QUANTUM,
                "canonicity_cap": CANONICITY_CAP}


@dataclass
class SearchStats:
    nodes: int = 0
    girth_prunes: int = 0
    canonicity_prunes: int = 0
    infeasible_prunes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> SearchStats:
        """Counts written by as_dict.  Raises CheckpointError unless every
        count is present and a non-negative int (a bool is not)."""
        names = [f.name for f in fields(cls)]
        if not isinstance(d, dict) or any(
            type(d.get(k)) is not int or d[k] < 0 for k in names
        ):
            raise CheckpointError(
                f"stats {d!r} are not non-negative integer counts"
            )
        return cls(**{k: d[k] for k in names})

    def add(self, other: SearchStats) -> None:
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def tally(self, state: str, pruned: int) -> None:
        """Count an expansion's girth-pruned combinations and its state."""
        self.girth_prunes += pruned
        if state == "infeasible":
            self.infeasible_prunes += 1
        elif state == "noncanonical":
            self.canonicity_prunes += 1


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
    return list(accumulate(parts[:-1], initial=0))


def _skeleton_arcs(parts: tuple[int, ...]) -> list[Pair]:
    return [(start + i, start + (i + 1) % length)
            for start, length in zip(_block_starts(parts), parts)
            for i in range(length)]


def skeleton_group_order(parts: tuple[int, ...]) -> int:
    """|Aut| of the labeled skeleton: rotations of each cycle times
    permutations of equal-length cycles."""
    total = prod(parts)
    for length in set(parts):
        total *= factorial(parts.count(length))
    return total


def _skeleton_autos(parts: tuple[int, ...]) -> _np.ndarray:
    """All skeleton automorphisms, one row of vertex images each, in the
    narrowest signed integers that hold n-1.  Rows run over the
    permutations of equal-length cycles, and within each over every
    combination of cycle rotations."""
    n = sum(parts)
    starts = _block_starts(parts)
    by_len: dict[int, list[int]] = {}
    for idx, length in enumerate(parts):
        by_len.setdefault(length, []).append(idx)
    classes = [by_len[length] for length in sorted(by_len)]
    rots = _np.indices(parts).reshape(len(parts), -1)
    dtype = _smallest_dtype(n - 1)
    blocks = []
    for assignment in product(*[permutations(c) for c in classes]):
        img = _np.empty((rots.shape[1], n), dtype=dtype)
        for cls, mapped in zip(classes, assignment):
            for src, dst in zip(cls, mapped):
                s, length = starts[src], parts[src]
                steps = _np.arange(length) + rots[src][:, None]
                img[:, s:s + length] = starts[dst] + steps % length
        blocks.append(img)
    return _np.concatenate(blocks)


def _code_dtype(n: int):
    """The narrowest signed integers, int16 or wider, that hold the
    edge codes a*n+b."""
    return _smallest_dtype(n * n, _SIGNED[1:])


def _image_codes(autos: _np.ndarray, edges) -> _np.ndarray:
    """Every image of an edge list under the rows of ``autos``: one row
    per element, the code a*n+b of each image edge {a, b}, a < b, in
    the order of ``edges``."""
    n = autos.shape[1]
    ends = _np.array(edges, dtype=_np.intp).reshape(-1, 2)
    a, b = autos[:, ends[:, 0]], autos[:, ends[:, 1]]
    codes = _np.minimum(a, b).astype(_code_dtype(n))
    codes *= n
    codes += _np.maximum(a, b)
    return codes


def _edge_key(edges, n: int) -> bytes:
    """Key of an edge list {a, b}, a < b: its codes a*n+b, sorted, as
    bytes of _code_dtype(n)."""
    return _np.array(
        sorted(a * n + b for a, b in edges), dtype=_code_dtype(n)
    ).tobytes()


def _orbit_keys(autos: _np.ndarray, edges) -> list[bytes]:
    """The _edge_key of every image of an edge list under the rows of
    ``autos``, from one pass of _image_codes."""
    codes = _image_codes(autos, edges)
    codes.sort(axis=1)
    return [row.tobytes() for row in codes]


def _least_image(autos: _np.ndarray, edges) -> _np.ndarray:
    """Lexicographically least image of an edge list under the rows of
    ``autos``: the least of the sorted rows of _image_codes.  Edge sets
    in one orbit of the group get the same least image, and a sorted
    edge list is least in its orbit iff its codes equal it.

    Only the rows whose least code is the overall least can win, so only
    those are sorted.  One argmin then ranks them as byte strings: the
    big-endian bytes of non-negative codes compare as the codes do."""
    codes = _image_codes(autos, edges)
    if not codes.shape[1]:
        return codes[0]  # no bytes to compare
    first = codes.min(axis=1)
    codes = codes[first == first.min()]
    codes.sort(axis=1)
    rows = codes.astype(codes.dtype.newbyteorder(">"))
    return codes[rows.view(f"S{rows.itemsize * rows.shape[1]}").argmin()]


# ---------------------------------------------------------------------------
# per-skeleton depth-first search


class _Frame:
    __slots__ = ("vertex", "combos", "next_idx")

    def __init__(self, vertex, combos, next_idx=0):
        self.vertex = vertex
        self.combos = combos
        self.next_idx = next_idx


# the signed integer types, narrowest first, each with its maximum
_SIGNED = tuple((t, int(_np.iinfo(t).max))
                for t in (_np.int8, _np.int16, _np.int32, _np.int64))


def _smallest_dtype(bound: int, types: tuple = _SIGNED):
    """The first of the (type, maximum) pairs ``types`` whose range
    reaches ``bound``."""
    return next(t for t, top in types if top >= bound)


def _skeleton_distances(
    parts: tuple[int, ...], cap: int, dtype
) -> _np.ndarray:
    """Capped directed distances of a bare skeleton: along each cycle,
    ``cap`` between different cycles."""
    n = sum(parts)
    dist = _np.full((n, n), cap, dtype=dtype)
    for start, length in zip(_block_starts(parts), parts):
        steps = _np.arange(length)
        block = (steps[None, :] - steps[:, None]) % length
        dist[start:start + length, start:start + length] = _np.minimum(
            block, cap
        )
    return dist


def _grow(out: list, dist, lo: int, head: tuple[int, ...], pool: list[int],
          k: int) -> None:
    """Append to ``out``, in lexicographic order, ``head`` extended by
    every k-subset of the sorted ``pool`` (k >= 2) whose pairs a, b all
    have ``dist(a, b) >= lo`` and ``dist(b, a) >= lo``; the pair level
    (k == 2) is one comprehension, each deeper one recurses per a."""
    if k == 2:
        out += [head + (a, b) for p, a in enumerate(pool) for b in pool[p + 1:]
                if dist(a, b) >= lo and dist(b, a) >= lo]
        return
    for p, a in enumerate(pool):
        rest = [b for b in pool[p + 1:]
                if dist(a, b) >= lo and dist(b, a) >= lo]
        if len(rest) >= k - 1:
            _grow(out, dist, lo, head + (a,), rest, k - 1)


class _SkeletonSearch:
    """Suspendable edge-completion search over one arc skeleton.

    ``dist[a, b]`` is the length of a shortest mixed path from a to b
    (arcs forward, edges either way), capped at g-1: the girth filters
    only ask whether a distance is at most g-2 or g-3.  An edge {x, y}
    could still be added when x != y, x and y are not adjacent, and no
    path of length <= g-2 joins them either way; _free_slack derives
    that matrix from ``dist`` once per node.

    A batch is the edges that complete one deficient vertex v: it is
    non-empty and brings v to degree r exactly (_add_batch raises
    ValueError otherwise).  Every edge of a batch meets v.  A shortest
    path passes v at most once, so it uses at most two new edges, and
    those two meet at v.  The new distances into and out of v are
    therefore ``to_v[a] = min(dist[a, v], min_u dist[a, u] + 1)`` and
    ``from_v[b] = min(dist[v, b], min_u dist[u, b] + 1)`` over the
    partners u, and every other distance is
    ``min(dist[a, b], to_v[a] + from_v[b])``: one outer sum per batch.
    Capped inputs give exact sums below the cap.  The undo entry of a
    batch, ``(replaced matrix, v, partners)``, is all _pop_batch needs,
    and the undo stack read in order is the edge list (``edges``).
    Under "lex" v is the least deficient vertex and its partners lie
    above it, so that list stays sorted.

    The degree state is kept across nodes: the degrees (a list), the
    mask of deficient vertices (``deg < r``), a slack base (deg - r, or
    n for a complete vertex) and the deficient count.  A batch sets v to
    degree r, base n, mask off; its undo sets degree r - k, base -k,
    mask on, for k partners.  Each partner moves by one, and its mask
    bit and the count change only where its degree crosses r, so a
    partner of any degree stays exact.  The dtypes follow from the
    input size: ``dist`` is the smallest signed type holding
    2(g-1)+1, the largest sum the update forms (int8 up to g = 64), and
    the counts, the base and the mask (1 for a deficient vertex, else 0)
    share the smallest signed type holding 2n and r (int8 up to n = 63):
    a complete vertex's slack is below 2n, and -r the least base, so the
    sum never leaves that type.
    """

    def __init__(self, spec: SearchSpec, skeleton: ArcSkeleton) -> None:
        self.spec = spec
        self.skeleton = skeleton
        n = spec.n
        self.n = n
        self.cap = spec.g - 1
        dist_dtype = _smallest_dtype(2 * self.cap + 1)
        self.dist = _skeleton_distances(skeleton.parts, self.cap, dist_dtype)
        # 1 and the cap as scalars of that dtype: an int operand costs a
        # conversion on every call
        self._one, self._far = dist_dtype(1), dist_dtype(self.cap)
        self._undo: list[tuple] = []
        # the degree state of the class docstring, kept by the batches
        r = spec.r
        self.deg = [0] * n
        self.base = _np.full(n, -r, dtype=_smallest_dtype(max(2 * n, r)))
        self.deficient = _np.ones(n, dtype=self.base.dtype)
        self.n_deficient = n
        self.exhausted = False
        self.policy = spec.effective_policy()
        self.use_group = (
            skeleton_group_order(skeleton.parts) <= CANONICITY_CAP
        )
        self.orderly = self.policy == "lex" and self.use_group
        self._autos: _np.ndarray | None = None
        # the classes an enumeration has met here (see _admit); kept
        # across visits, dropped once the skeleton is exhausted
        self.keys: set[bytes] = set()
        self.stack: list[_Frame] = []
        # this skeleton's share of the outcome: cumulative counts, and
        # verified witnesses in emission order
        self.stats = SearchStats()
        self.witnesses: list[MixedGraph] = []

    def group(self) -> _np.ndarray | None:
        """The skeleton group array (_skeleton_autos), built on first
        use, or None when the group is larger than CANONICITY_CAP."""
        if self.use_group and self._autos is None:
            self._autos = _skeleton_autos(self.skeleton.parts)
        return self._autos

    # -- state mutation

    def _add_batch(self, v: int, partners: tuple[int, ...],
                   dist: _np.ndarray | None = None) -> None:
        """Add the edges {v, u} for every partner u, completing v, and
        keep the degree state.  ``dist`` gives the distances with the
        batch added when they are already known (_stacked_distances).
        Raises ValueError, with nothing changed, unless the batch is
        non-empty and brings v to degree r exactly."""
        r, deg = self.spec.r, self.deg
        if not partners or deg[v] + len(partners) != r:
            raise ValueError(f"batch {partners} does not complete vertex "
                             f"{v} of degree {deg[v]} to {r}")
        d = self.dist
        if dist is None:
            # per-partner slices: fancy indexing costs more at this size
            to_u, from_u = d[:, partners[0]], d[partners[0]]
            for u in partners[1:]:
                to_u = _np.minimum(to_u, d[:, u])
                from_u = _np.minimum(from_u, d[u])
            to_v, from_v = to_u + self._one, from_u + self._one
            _np.minimum(to_v, d[:, v], out=to_v)
            _np.minimum(from_v, d[v], out=from_v)
            via = to_v[:, None] + from_v
            dist = _np.minimum(d, via, out=via)
        self._undo.append((d, v, partners))
        self.dist = dist
        base, mask = self.base, self.deficient
        deg[v], base[v], mask[v] = r, self.n, False
        self.n_deficient -= 1
        for u in partners:
            du = deg[u] = deg[u] + 1
            if du < r:
                base[u] = du - r
            elif du == r:
                base[u], mask[u] = self.n, False
                self.n_deficient -= 1

    def _pop_batch(self) -> None:
        self.dist, v, partners = self._undo.pop()
        r, deg, base, mask = self.spec.r, self.deg, self.base, self.deficient
        k = len(partners)
        deg[v], base[v], mask[v] = r - k, -k, True
        self.n_deficient += 1
        for u in partners:
            du = deg[u] = deg[u] - 1
            if du < r:
                base[u] = du - r
                if du == r - 1:
                    mask[u] = True
                    self.n_deficient += 1

    @property
    def edges(self) -> list[Pair]:
        """The edges so far, as (a, b) with a < b, in batch order."""
        return [(v, u) if v < u else (u, v) for _, v, ps in self._undo
                for u in ps]

    # -- search proper

    def _free_slack(self) -> tuple[_np.ndarray, _np.ndarray]:
        """The free pairs {x, y}, those an edge could still join (no
        path of length <= g-2 either way), as a 0/1 int8 matrix, and
        every vertex's slack.  From g = 3 on that distance already
        excludes x == y and adjacent pairs; below it they are cleared
        here.  A deficient vertex's slack is the number of free deficient
        partners minus its remaining demand, at most n - 2; the base adds
        n for a complete vertex instead, so it reads at least n."""
        far = self.dist >= self._far
        free = (far & far.T).view(_np.int8)
        if self.cap < 2:
            _np.fill_diagonal(free, 0)
            if self._undo:
                a, b = _np.array(self.edges).T
                free[a, b] = free[b, a] = 0
        # the product and the sum stay in the base dtype, which holds 2n
        slack = free @ self.deficient
        slack += self.base
        return free, slack

    def _candidates(self, v: int, free: _np.ndarray) -> _np.ndarray:
        """Deficient partners that can take an edge to v without closing
        a cycle shorter than g (single-edge criterion, exact: ``free`` is
        the matrix of _free_slack)."""
        return (free[v] & self.deficient).nonzero()[0]

    def _combos_for(
        self, v: int, free: _np.ndarray
    ) -> tuple[list[tuple[int, ...]], int]:
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

        A single missing edge needs no pair test.  Otherwise _grow picks
        the sorted candidates in order, and each pick narrows the pool of
        later candidates to those no path of length <= g-3 joins to it
        either way, so the combinations come out in lexicographic order
        and are exactly those without a rejected pair; the girth-pruned
        count is the rest of the C(c, need) raw ones.
        """
        need = self.spec.r - self.deg[v]
        cands = self._candidates(v, free).tolist()
        if need == 1:
            return [(c,) for c in cands], 0
        out: list[tuple[int, ...]] = []
        _grow(out, self.dist.item, self.cap - 1, (), cands, need)
        return out, _comb(len(cands), need) - len(out)

    def _expand(self) -> tuple[str, int]:
        """Test the current state and push its frame.

        Returns ("pushed" | "infeasible" | "complete", girth-pruned
        combination count).  "complete" is read off the deficient count
        before any free pair is derived; otherwise _branch decides from
        the free pairs and slack of _free_slack.
        """
        if not self.n_deficient:
            return "complete", 0
        free, slack = self._free_slack()
        least = slack.argmin()
        return self._branch(free, int(least), slack[least])

    def _branch(self, free: _np.ndarray, least: int,
                low: int) -> tuple[str, int]:
        """Push the frame of a state that is not complete, given its free
        pairs, its first vertex of least slack and that slack
        (_free_slack), or report it "infeasible": some deficient vertex
        has fewer free deficient partners than it still needs, a
        negative slack.  "focus" completes that vertex, the first of
        least slack over all n vertices, since a complete one reads at
        least n; "lex" the least-index deficient vertex."""
        if low < 0:
            return "infeasible", 0
        v = int(self.deficient.argmax()) if self.policy == "lex" else least
        combos, pruned = self._combos_for(v, free)
        self.stack.append(_Frame(v, combos))
        return "pushed", pruned

    def _descend(
        self, frame: _Frame, combo: tuple[int, ...]
    ) -> tuple[str, int]:
        """Complete the frame's vertex with ``combo`` and expand the
        child, batch left applied.  An orderly search (lex policy, group
        within CANONICITY_CAP) reports a child "noncanonical" when its edge
        list is not least in its orbit under the skeleton group; otherwise
        see _expand ("pushed" | "infeasible" | "complete")."""
        self._add_batch(frame.vertex, combo)
        if self.orderly:
            n, edges = self.n, self.edges
            if _least_image(self.group(), edges).tolist() != [
                    a * n + b for a, b in edges]:
                return "noncanonical", 0
        return self._expand()

    def visit(self, quota: float,
              deadline: float | None) -> tuple[_SkeletonSearch, str, int]:
        """Advance an unexhausted skeleton until the node quota or
        deadline is consumed, a decide search admits a witness, or the
        skeleton is exhausted: a round of this search alone (_round).
        Returns (this search, "found" | "paused" | "exhausted", nodes
        consumed this visit)."""
        return _round([self], [quota], deadline)[0]

    def fork(self) -> _SkeletonSearch:
        """A copy that a visit can advance while this search stays as it
        is.  It shares what no visit changes in place: the distance
        matrices, which a batch replaces, the combination lists and the
        group.  The attributes are set as unpickling sets them
        (__setstate__)."""
        twin = object.__new__(type(self))
        twin.__setstate__(vars(self))
        twin.deg = self.deg.copy()
        twin.deficient = self.deficient.copy()
        twin.base = self.base.copy()
        twin._undo = self._undo.copy()
        twin.stack = [_Frame(f.vertex, f.combos, f.next_idx)
                      for f in self.stack]
        twin.keys = self.keys.copy()
        twin.stats = SearchStats(**self.stats.as_dict())
        twin.witnesses = self.witnesses.copy()
        return twin

    def __setstate__(self, state: dict) -> None:
        """Set the attributes one by one, in the order of __init__: an
        instance whose __dict__ is filled in one piece, as unpickling
        and copy.copy do without this method, reads its attributes more
        slowly."""
        for name, value in state.items():
            setattr(self, name, value)

    def _admit(self, edges: list[Pair],
               graph: MixedGraph | None = None) -> bool:
        """The one class test: keep the edge set on this skeleton's arcs
        (``graph``, when already built) as a witness if it is verified
        and, in enumerate mode, of a class not met before.

        A witness is regular (r, 1) with girth exactly g.  In enumerate
        mode the skeleton group names the classes: completions of
        different skeletons are never isomorphic, and within one skeleton
        the classes are the orbits of its group.  The first edge set of
        each orbit is mapped through the group once, and every image's
        key (_orbit_keys) is added to ``keys``; a later one whose own key
        (_edge_key) is among them is isomorphic to an earlier one, so it
        shares that one's degrees, girth and class and is dropped before
        its graph is built.  A skeleton automorphism keeps the arcs, the
        degrees and the girth, so every image is itself a completion that
        the search reaches: the keys are the labeled completions of the
        orbits met so far, and each orbit costs one pass over the group.
        An orderly search reaches each orbit's least image once, along
        its one path, so it never meets its own keys; it keeps them for
        the classes a resumed run restores, which it meets later.  Only a
        skeleton whose group exceeds CANONICITY_CAP labels each witness
        canonically and keeps the encodings as its ``keys``.  Decide mode
        keeps no keys: its first witness ends the search."""
        spec = self.spec
        autos = self.group() if spec.mode == "enumerate" else None
        if autos is not None:
            if _edge_key(edges, self.n) in self.keys:
                return False
            self.keys.update(_orbit_keys(autos, edges))
        if graph is None:
            graph = new_graph(self.n, edges, list(self.skeleton.arcs))
        if (degree_profile(graph).regular != (spec.r, 1)
                or girth(graph).girth != spec.g):
            return False
        if spec.mode == "enumerate" and autos is None:
            enc = canonical_form(graph).encoding
            if enc in self.keys:
                return False
            self.keys.add(enc)
        self.witnesses.append(graph)
        return True

    # -- suspension

    def to_state(self) -> dict:
        return {
            "parts": list(self.skeleton.parts),
            "exhausted": self.exhausted,
            "started": self.exhausted or bool(self.stack),
            "path": [f.next_idx for f in self.stack],
            "stats": self.stats.as_dict(),
            "witnesses": [graph_payload(w) for w in self.witnesses],
        }

    def restore(self, state: dict) -> None:
        """Replay a to_state() record: its statistics, its witnesses
        (_restore_witnesses) and its path.  Raises CheckpointError when
        the record is malformed, contradicts itself (started exactly when
        exhausted or on a path, never both, and with no counts or
        witnesses before it starts) or its path leaves the search tree."""
        try:
            parts = tuple(state["parts"])
            exhausted, started = state["exhausted"], state["started"]
            path, witnesses = state["path"], state["witnesses"]
            stats = SearchStats.from_dict(state["stats"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed skeleton state: {exc!r}") from None
        if parts != self.skeleton.parts:
            raise CheckpointError(
                f"skeleton state for parts {list(parts)}, "
                f"expected {list(self.skeleton.parts)}"
            )
        if type(exhausted) is not bool or type(started) is not bool:
            raise CheckpointError("exhausted and started must be booleans")
        if (started != (exhausted or bool(path)) or exhausted and path
                or not started and (witnesses or stats != SearchStats())):
            raise CheckpointError(
                f"state of skeleton {list(parts)} contradicts itself: "
                f"exhausted {exhausted}, started {started}, path {path!r}"
            )
        self.stats = stats
        self._restore_witnesses(witnesses)
        self.exhausted = exhausted
        if exhausted:
            self.keys = set()
        if exhausted or not started:
            return
        if (not isinstance(path, list)
                or any(type(i) is not int for i in path)):
            raise CheckpointError(
                f"path of skeleton {list(parts)} must be a list of integers"
            )
        expanded, _ = self._expand()
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
            expanded, _ = self._descend(frame, frame.combos[next_idx - 1])

    def _restore_witnesses(self, payloads) -> None:
        """Admit a record's witnesses again, which checks them and
        rebuilds the keys from them.  Each must have order n and carry
        this skeleton's arcs, checked first since _admit indexes by
        vertex, and _admit must keep it: a verified witness of a class
        not met before.  A decide record has none.  Raises
        CheckpointError otherwise.  An orbit the search met that failed
        the witness test is left out; its next member fails again."""
        spec, parts = self.spec, list(self.skeleton.parts)
        if not isinstance(payloads, list):
            raise CheckpointError(f"witnesses of skeleton {parts} not a list")
        if spec.mode == "decide" and payloads:
            raise CheckpointError("decide checkpoint records witnesses")
        for i, payload in enumerate(payloads):
            try:
                w = graph_from_payload(payload)
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"malformed checkpoint witness: {exc!r}") from None
            if (w.n != spec.n or w.arcs != frozenset(self.skeleton.arcs)
                    or not self._admit(w.sorted_edges(), w)):
                raise CheckpointError(
                    f"witness {i} of skeleton {parts} is not an "
                    f"({spec.r},1,{spec.g})-graph of order {spec.n} on "
                    "its arcs, or repeats a class"
                )


# ---------------------------------------------------------------------------
# rounds: several searches advanced in lockstep


def _round(searches: list[_SkeletonSearch], quotas: list[float],
           deadline: float | None) -> list[tuple | None]:
    """Visit each search with its node quota, all in lockstep: the one
    depth-first loop.  Returns, per search, what its visit returns: (the
    search, "found" | "paused" | "exhausted", nodes consumed).

    A search's first visit expands its root, the bare skeleton, which
    costs no node.  It is never complete, since every vertex lacks all
    r edges; when it is infeasible nothing is pushed and the skeleton is
    exhausted at once.  So a skeleton that is not exhausted has started
    exactly when its stack is non-empty.  Every other frame was entered
    by applying a batch, so popping a frame undoes a batch exactly when a
    frame stays below it.

    Each step, every live search pops its exhausted frames and takes its
    next combination, unless its quota is spent or its stack runs out;
    then all that took one descend together (_descend_together), or
    alone through _descend when only one did, g < 3 or the policy is
    "lex", whose orderly test on every child leaves a stacked step
    nothing to save.  Each child is one node, and its state is counted
    by SearchStats.tally, as the root's is.  A child that is not
    "pushed" ("infeasible", "noncanonical" or "complete") is undone
    once, a complete one after _admit.  When a decide search admits a
    witness, the searches after it leave the round at once, with no
    result: their state is past what a visit in order would have done,
    so the caller must run a round of several searches on copies and
    drop them.  A passed deadline pauses every live search."""
    out: list[tuple | None] = [None] * len(searches)
    used = [0] * len(searches)
    live = []
    for i, s in enumerate(searches):
        if not s.stack:
            s.stats.tally(*s._expand())
        live.append(i)
    together = bool(searches) and searches[0].cap >= 2 and (
        searches[0].policy != "lex")
    while live:
        expired = deadline is not None and time.monotonic() > deadline
        steps = []
        for i in live:
            s = searches[i]
            stack = s.stack
            while stack:
                if used[i] >= quotas[i] or expired:
                    out[i] = (s, "paused", used[i])
                    break
                frame = stack[-1]
                if frame.next_idx < len(frame.combos):
                    steps.append((i, s, frame, frame.combos[frame.next_idx]))
                    frame.next_idx += 1
                    used[i] += 1
                    break
                stack.pop()
                if stack:
                    s._pop_batch()
            else:
                s.exhausted = True
                s.keys = set()
                out[i] = (s, "exhausted", used[i])
        results = (_descend_together(steps)
                   if together and len(steps) > 1 else None)
        live = []
        for j, (i, s, frame, combo) in enumerate(steps):
            state, pruned = (s._descend(frame, combo) if results is None
                             else results[j])
            s.stats.nodes += 1
            s.stats.tally(state, pruned)
            if state != "pushed":
                found = (state == "complete" and s._admit(s.edges)
                         and s.spec.mode == "decide")
                s._pop_batch()
                if found:
                    out[i] = (s, "found", used[i])
                    break
            live.append(i)
    return out


def _descend_together(steps: list[tuple]) -> list[tuple[str, int]]:
    """_descend for each (index, search, frame, combination) of ``steps``, two
    or more searches of one spec with g >= 3 and no orderly test, from
    one stacked distance update (_stacked_distances) and one stacked pass
    for the free pairs and slack (_stacked_free_slack) instead of one of
    each per search, each input stacked by one bytes join (_stack).  In
    between, each search takes its child's distances as a copy of its
    row, so no search holds the stacked array, and completes its vertex
    (_add_batch); the complete children skip the free pairs, as in
    _expand, and none is "noncanonical"."""
    searches = [s for _, s, _, _ in steps]
    r = searches[0].spec.r
    ends: list[int] = []
    for _, _, frame, combo in steps:
        # repeating a partner leaves each minimum as it is
        ends += (frame.vertex,) + combo + combo[:1] * (r - len(combo))
    new = _stacked_distances(
        _stack([s.dist for s in searches]),
        _np.array(ends, dtype=_np.intp).reshape(len(steps), r + 1))
    for i, (_, s, frame, combo) in enumerate(steps):
        s._add_batch(frame.vertex, combo, new[i].copy())
    results = [("complete", 0)] * len(steps)
    if any(s.n_deficient for s in searches):
        # the rows of complete children are computed unread
        free, slack = _stacked_free_slack(
            new, _stack([s.deficient for s in searches]),
            _stack([s.base for s in searches]), searches[0]._far)
        for i, (s, v, low) in enumerate(zip(
                searches, slack.argmin(axis=1).tolist(),
                slack.min(axis=1).tolist())):
            if s.n_deficient:
                results[i] = s._branch(free[i], v, low)
    return results


def _stack(arrays: list[_np.ndarray]) -> _np.ndarray:
    """Arrays of one shape and dtype, each C-contiguous (else TypeError),
    stacked on a new first axis by one bytes join, read-only."""
    return _np.frombuffer(b"".join(arrays), arrays[0].dtype).reshape(
        len(arrays), *arrays[0].shape)


def _stacked_distances(dists: _np.ndarray, ends: _np.ndarray) -> _np.ndarray:
    """The distances of _add_batch for a stack of k searches at once:
    ``dists`` is (k, n, n), and row i of ``ends`` holds search i's vertex
    v followed by its partners.  The new distances into v are the least
    of ``dist[a, v]`` and ``dist[a, u] + 1`` over the partners u, those
    out of v likewise, and every other distance is the least of its old
    value and one outer sum.  One gather each way, position first, puts
    the +1 and the least over the ends on whole leading blocks."""
    k = len(dists)
    at, ends = _np.arange(k), ends.T
    near = _np.concatenate((dists[at, :, ends], dists[at, ends]), axis=1)
    near[1:] += 1  # v itself is position 0
    least = near.min(axis=0)
    via = least[:k, :, None] + least[k:, None, :]
    return _np.minimum(dists, via, out=via)


def _stacked_free_slack(
    dists: _np.ndarray, deficient: _np.ndarray, base: _np.ndarray, cap
) -> tuple[_np.ndarray, _np.ndarray]:
    """_free_slack for a stack of searches with g >= 3: the (k, n, n)
    free pairs and the (k, n) slack of the k distance matrices, deficient
    masks and slack bases, for the cap g-1 as a scalar of the distances'
    dtype."""
    far = dists >= cap
    free = (far & far.transpose(0, 2, 1)).view(_np.int8)
    slack = _np.matmul(free, deficient[:, :, None])[:, :, 0]
    slack += base
    return free, slack


# ---------------------------------------------------------------------------
# engine


def search_order(
    spec: SearchSpec, checkpoint: dict | None = None, workers: int = 1
) -> SearchOutcome:
    """Search for (r,1,g)-graphs of order exactly spec.n.

    Witnesses are verified complete graphs: regular (r, 1) with girth
    exactly g.  Pass a checkpoint from an earlier budget-exceeded
    outcome to resume; statistics accumulate across resumes and node
    budgets apply to the cumulative count.

    Each round visits the pending skeletons in order of the node quanta
    they have done, fewest first, ties in index order, and grants each
    the rest of its current quantum (ROTATION_QUANTUM in decide mode,
    unbounded in enumerate mode).  The schedule is read off the
    searches, so a resumed run visits them in the same cyclic order as
    an uninterrupted one, and an interrupted visit is finished first.
    Each round is one lockstep round (_round) on copies of the searches:
    a step descends the children of all live searches at once, or one
    child alone by the plain path.  With ``workers`` > 1 a process pool
    runs it in shares, worker w taking the searches w, w + workers, ...
    of the round, and the results are interleaved back into visit order.
    Each search is granted its quota capped by the budget left at the
    round's start less the grants before it, so the grants never add up
    to more than the budget, and a search granted nothing is not run.
    The results are consumed in visit order under the same rules: a copy
    after the first visit that finds a witness or is cut short by the
    deadline is dropped, and a visit granted less than its quota in
    order, because an earlier one stopped early, is visited on to it.  So
    status, witnesses, statistics and checkpoint do not depend on
    ``workers``.  The outcome sums the searches' statistics and
    concatenates their witnesses in skeleton order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if checkpoint is not None:
        _validate_checkpoint(spec, checkpoint)
    if spec.n * spec.r % 2 or spec.r >= spec.n:
        # a simple r-regular edge layer needs an even degree sum and
        # r < n; then the one-cycle skeleton (n) exists
        return SearchOutcome("exhausted", [], SearchStats())
    searches = [_SkeletonSearch(spec, sk)
                for sk in arc_skeletons(spec.n, spec.g)]
    if checkpoint is not None:
        if len(checkpoint["skeletons"]) != len(searches):
            raise CheckpointError("checkpoint skeleton list does not match")
        for search, state in zip(searches, checkpoint["skeletons"]):
            search.restore(state)

    deadline = None
    if spec.time_budget is not None:
        deadline = time.monotonic() + spec.time_budget
    quantum: float = ROTATION_QUANTUM if spec.mode == "decide" else _INF

    def budget_left() -> float:
        if spec.node_budget is None:
            return _INF
        return spec.node_budget - sum(s.stats.nodes for s in searches)

    def outcome(status: str) -> SearchOutcome:
        stats = SearchStats()
        for s in searches:
            stats.add(s.stats)
        witnesses = [w for s in searches for w in s.witnesses]
        checkpoint = None
        if status == "budget_exceeded":
            checkpoint = {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "package_version": __version__,
                "spec": spec.key(),
                "skeletons": [s.to_state() for s in searches],
            }
        return SearchOutcome(status, witnesses, stats, checkpoint)

    def drive(run) -> SearchOutcome:
        while True:
            order = sorted(
                (i for i, s in enumerate(searches) if not s.exhausted),
                key=lambda i: searches[i].stats.nodes // quantum,
            )
            if not order:
                found = any(s.witnesses for s in searches)
                return outcome("found" if found else "exhausted")
            quotas = [quantum - searches[i].stats.nodes % quantum
                      for i in order]
            # the one grant rule: each visit's quota, capped by what the
            # budget left at the round's start leaves after the grants
            # before it; the visits granted nothing come last
            grants, left = [], budget_left()
            for quota in quotas:
                grants.append(min(quota, left))
                if left < _INF:
                    left -= grants[-1]
            ran = sum(grant > 0 for grant in grants)
            if not ran:  # as the first merge step would, running nothing
                return outcome("budget_exceeded")
            results = run([searches[i] for i in order[:ran]], grants[:ran]) + [
                (searches[i], "paused", 0) for i in order[ran:]]
            for idx, quota, grant, result in zip(order, quotas, grants,
                                                 results):
                exact = min(quota, budget_left())
                if exact <= 0:
                    return outcome("budget_exceeded")
                search, status, used = result
                if status == "paused" and used == grant < exact:
                    # an earlier visit stopped early, so this one may go
                    # on to the quota a visit in order gets
                    search, status, more = search.visit(exact - used,
                                                        deadline)
                    used += more
                searches[idx] = search
                if status == "found":
                    return outcome("found")
                if status == "paused" and used < quota:
                    # stopped by the global budget or the deadline
                    return outcome("budget_exceeded")

    if workers == 1:
        return drive(lambda batch, grants: _round(
            [s.fork() for s in batch], grants, deadline))
    from concurrent.futures import ProcessPoolExecutor

    def pooled(batch, grants):
        # worker w runs the round of searches w, w + workers, ...
        shares = list(pool.map(
            _round, [batch[w::workers] for w in range(workers)],
            [grants[w::workers] for w in range(workers)],
            [deadline] * workers))
        return [shares[k % workers][k // workers] for k in range(len(batch))]

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return drive(pooled)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _validate_checkpoint(spec: SearchSpec, cp: dict) -> None:
    """A checkpoint recorded for other parameters raises ValueError; one
    that is malformed raises CheckpointError.  The skeleton count and
    records are checked as they are restored."""
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
    if not isinstance(cp.get("skeletons"), list):
        raise CheckpointError("checkpoint skeleton list does not match")


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
