"""Mutation checks: each mutant breaks one exactness argument of the
library, and the tests named with it must catch the break.

Run from anywhere, with pytest installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants

Each mutant is applied to a fresh copy of ``src/`` in a temporary
directory, and its tests run against that copy with ``pytest -x``.  The
run fails when a mutant survives (its tests pass), when its old text is
not found exactly once in its file, or when its tests do not run to a
verdict.  A stale mutant, whose text the library no longer has, is to be
updated, not dropped.  A change to an exactness argument adds its
mutants here.  The file is not named like a test module, so pytest does
not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# a mutant whose tests run longer than this is reported, not killed
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


_SEARCH = "mixedcages/search.py"
_T = "tests/test_search.py::"
_ISO = "mixedcages/isomorphism.py"
_I = "tests/test_isomorphism.py::"
_GRAPHS = "mixedcages/graphs.py"
_GR = "tests/test_graphs.py::"
_GIRTH = "mixedcages/girth.py"
_G = "tests/test_girth.py::"

MUTANTS = (
    # the orderly test leaves its batch applied; the round must undo it
    Mutant(
        "noncanonical-child-not-undone", _SEARCH,
        '            if state != "pushed":\n',
        '            if state not in ("pushed", "noncanonical"):\n',
        (_T + "test_lex_round_steps_each_search_alone",
         _T + "test_enumerate_witnesses_are_pinned[lex]"),
    ),
    Mutant(
        "noncanonical-counted-as-infeasible", _SEARCH,
        '        elif state == "noncanonical":\n'
        "            self.canonicity_prunes += 1\n",
        '        elif state == "noncanonical":\n'
        "            self.infeasible_prunes += 1\n",
        (_T + "test_lex_round_steps_each_search_alone",
         _T + "test_enumerate_witnesses_are_pinned[lex]"),
    ),
    # a checkpoint record that contradicts itself is resumed
    Mutant(
        "contradictory-record-accepted", _SEARCH,
        "        if (started != (exhausted or bool(path))"
        " or exhausted and path\n"
        "                or not started"
        " and (witnesses or stats != SearchStats())):\n",
        "        if False:\n",
        tuple(_T + f"test_malformed_checkpoint_rejected[<lambda>{k}]"
              for k in (14, 16, 17)),
    ),
    # an exhausted record that keeps its path skips the rest of it
    Mutant(
        "exhausted-record-with-path-accepted", _SEARCH,
        "        if (started != (exhausted or bool(path))"
        " or exhausted and path\n",
        "        if (started != (exhausted or bool(path))\n",
        (_T + "test_malformed_checkpoint_rejected[<lambda>15]",),
    ),
    # a checkpoint witness of a larger order reaches the class test,
    # which indexes the skeleton group by its vertices
    Mutant(
        "witness-order-not-checked", _SEARCH,
        "            if (w.n != spec.n"
        " or w.arcs != frozenset(self.skeleton.arcs)\n",
        "            if (w.arcs != frozenset(self.skeleton.arcs)\n",
        (_T + "test_edited_checkpoint_resumes_soundly_or_is_refused",),
    ),
    # a visit granted less than its in-order quota is not visited on
    Mutant(
        "no-continuation", _SEARCH,
        '                if status == "paused" and used == grant < exact:\n',
        "                if False:\n",
        (_T + "test_decide_checkpoint_resume_matches_uninterrupted",
         _T + "test_grants_match_visits_in_order[1]"),
    ),
    # each grant is capped by the whole budget left, not by what the
    # grants before it leave
    Mutant(
        "grants-ignore-earlier-grants", _SEARCH,
        "                if left < _INF:\n"
        "                    left -= grants[-1]\n",
        "",
        (_T + "test_decide_checkpoint_resume_matches_uninterrupted",
         _T + "test_grants_match_visits_in_order[1]"),
    ),
    # a round in process runs on the searches, not on copies, so the
    # searches after a decide witness keep state past their visits
    Mutant(
        "round-without-copies", _SEARCH,
        "            [s.fork() for s in batch], grants, deadline))\n",
        "            batch, grants, deadline))\n",
        (_T + "test_grants_match_visits_in_order[1]",
         _T + "test_workers_match_in_process[2]"),
    ),
    # a partner's degree crossing r is tested with >= on add
    Mutant(
        "degree-crossing-ge-on-add", _SEARCH,
        "            elif du == r:\n",
        "            elif du >= r:\n",
        (_T + "test_incremental_distances_match_matrix_powers",
         _T + "test_search_state_holds_past_narrow_dtype_limits[n260-g3]"),
    ),
    # a partner's degree crossing r is tested with <= on undo
    Mutant(
        "degree-crossing-le-on-undo", _SEARCH,
        "                if du == r - 1:\n",
        "                if du <= r - 1:\n",
        (_T + "test_incremental_distances_match_matrix_powers",
         _T + "test_search_state_holds_past_narrow_dtype_limits[n260-g3]"),
    ),
    # the pair level keeps a pair that a short path joins one way
    Mutant(
        "pair-filter-one-direction", _SEARCH,
        "        out += [head + (a, b) for p, a in enumerate(pool)"
        " for b in pool[p + 1:]\n"
        "                if dist(a, b) >= lo and dist(b, a) >= lo]\n",
        "        out += [head + (a, b) for p, a in enumerate(pool)"
        " for b in pool[p + 1:]\n"
        "                if dist(a, b) >= lo]\n",
        (_T + "test_grow_matches_filtered_combinations",
         _T + "test_combos_match_reference_on_search_states[3-5-20-focus]"),
    ),
    # the stacked update steps from v itself as from a partner
    Mutant(
        "stacked-step-offset", _SEARCH,
        "    near[1:] += 1",
        "    near += 1",
        (_T + "test_stacked_step_matches_each_search_alone",),
    ),
    # search i takes row -i of the stacked distances: the same rows as
    # row i for two searches, a wrong one for the middle of three
    Mutant(
        "stacked-row-order", _SEARCH,
        "        s._add_batch(frame.vertex, combo, new[i].copy())\n",
        "        s._add_batch(frame.vertex, combo, new[-i].copy())\n",
        (_T + "test_stacked_step_matches_each_search_alone"
         "[3-5-20-decide-three]",),
    ),
    # the stacked slack adds each search's deficient mask as its base
    Mutant(
        "stacked-base-from-masks", _SEARCH,
        "            _stack([s.base for s in searches]), searches[0]._far)\n",
        "            _stack([s.deficient for s in searches]),"
        " searches[0]._far)\n",
        (_T + "test_stacked_step_matches_each_search_alone",),
    ),
    # the stacked free pairs read one direction of the distances
    Mutant(
        "stacked-free-without-transpose", _SEARCH,
        "    free = (far & far.transpose(0, 2, 1)).view(_np.int8)\n",
        "    free = far.view(_np.int8)\n",
        (_T + "test_stacked_step_matches_each_search_alone",),
    ),
    # a node off the first path that takes the first vertex of its
    # target cell reads the first path's next partition
    Mutant(
        "off-path-node-reads-first-path", _ISO,
        "            on = on_path and v == cell[0]\n",
        "            on = v == cell[0]\n",
        (_I + "test_aut_counts_match_brute_force",
         _I + "test_cold_and_warm_searches_agree_on_benchmark_graphs"),
    ),
    # the first path is stored per graph order, so that graphs of one
    # order share it
    Mutant(
        "first-path-keyed-by-order", _ISO,
        "@per_graph\ndef _first_path(",
        "@lambda compute: lambda g: compute.__dict__.setdefault(g.n, compute(g))"
        "\ndef _first_path(",
        (_I + "test_an_equal_graph_object_refines_from_scratch",
         _I + "test_cold_and_warm_searches_agree_on_benchmark_graphs"),
    ),
    # every per-graph fact is stored per graph order
    Mutant(
        "per-graph-fact-keyed-by-order", _GRAPHS,
        "        stored = vars(g)\n",
        "        stored = kept.__dict__.setdefault(g.n, {})\n",
        (_GR + "test_degree_profile_is_kept_per_graph_object",
         _I + "test_an_equal_graph_object_refines_from_scratch"),
    ),
    # an endpoint that is not an integer passes the range checks
    Mutant(
        "endpoints-not-checked-as-integers", _GRAPHS,
        "        u, v = _integer(u), _integer(v)\n",
        "        pass\n",
        (_GR + "test_new_graph_rejects_non_integers",
         "tests/test_cli.py::test_non_integer_witness_is_io_error"),
    ),
    # a graph with constant out-degree and uneven in-degree reads as
    # regular
    Mutant(
        "regularity-ignores-in-degree", _GRAPHS,
        "            and all(i == z for i in indeg)\n",
        "",
        (_GR + "test_degree_profile_needs_equal_in_degrees",),
    ),
    # a closed walk through one vertex twice passes as a cycle
    Mutant(
        "witness-repeated-vertex-accepted", _GIRTH,
        "    if len(set(interior)) != len(interior):\n",
        "    if False:\n",
        (_G + "test_witness_validation_rejects_repeated_vertex",),
    ),
    # the distance scan of an edge start may return along that edge
    Mutant(
        "scan-without-start-edge-ban", _GIRTH,
        "        if edge and (v, u) not in g.arcs:\n",
        "        if False:\n",
        (_G + "test_single_edge_has_no_cycle",
         _G + "test_one_orientation_scan_matches_bruteforce_and_references"),
    ),
    # a construction passes with any girth at all
    Mutant(
        "verify-accepts-any-girth", "mixedcages/constructions.py",
        "    if profile.regular != (r, z) or gr.girth != g_target:\n",
        "    if profile.regular != (r, z) or gr.girth is None:\n",
        ("tests/test_constructions.py::"
         "test_verify_parameters_needs_the_exact_girth",),
    ),
)


def apply(mutant: Mutant, src: Path) -> str | None:
    """Apply the mutant to the copy of ``src/`` at ``src``; the reason it
    cannot be applied, or None."""
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        return f"old text found {found} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return None


def run(mutant: Mutant | None, tests) -> str:
    """Run ``tests`` on a copy of ``src/`` with ``mutant`` applied (none
    for the source as it is): "passed", "failed", or what kept them from
    a verdict."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        reason = None if mutant is None else apply(mutant, src)
        if reason is not None:
            return reason
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONDONTWRITEBYTECODE": "1"}
        # an installed copy of the package must not shadow the copy
        where = subprocess.run(
            [sys.executable, "-c",
             "import mixedcages; print(mixedcages.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        imported = Path(where.stdout.strip() or ".").resolve()
        if src.resolve() not in imported.parents:
            return f"imports {where.stdout.strip() or where.stderr.strip()}"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"tests ran past {TIMEOUT_S} s"
    # pytest exits 1 when a test failed; other codes mean no verdict
    if proc.returncode in (0, 1):
        return ("passed", "failed")[proc.returncode]
    tail = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
    return f"pytest exit {proc.returncode}: {tail[0]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if any(not m.tests for m in chosen):
        print("every mutant must name its tests")
        return 2
    # a test that fails anyway would kill every mutant that names it
    clean = run(None, sorted({t for m in chosen for t in m.tests}))
    if clean != "passed":
        print(f"the named tests on the unchanged source: {clean}")
        return 1
    bad = 0
    for mutant in chosen:
        start = time.monotonic()
        verdict = run(mutant, mutant.tests)
        verdict = {"failed": "killed", "passed": "survived"}.get(verdict,
                                                                 verdict)
        bad += verdict != "killed"
        print(f"{verdict:>8}  {mutant.name}  "
              f"({time.monotonic() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
