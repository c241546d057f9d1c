"""The benchmark's workloads: inputs, one pass, and the output checks.

Every package call goes through a module attribute looked up at call
time (`search.search_order`, not an imported name), so the recorder's
wrappers see it.  Each workload runs serially in one process, a closed
loop with one client.

- `decide`: decide (3,1,6)@30, which must find a witness isomorphic to
  the order-30 construction, then decide (3,1,5)@20, which must
  exhaust.  Nearly all of it is the search's own depth-first search.
- `enumerate`: enumerate (3,1,4)@12 under `focus` (emission-time
  deduplication, 724 emissions) and under `lex` (orderly rejection).
  Both must give the same 29 classes, compared by canonical encoding.
- `certify`: the `verify`, `aut` and `iso` checks on 33 committed base
  graphs, each in its file labeling and three seeded relabelings; no
  search at all.

Expected values live in `expected/`: search counts measured on the
initial package, certify verdicts computed with networkx by
`generate_expected.py`.
"""

from __future__ import annotations

import importlib
import json
import random
from pathlib import Path
from typing import NamedTuple

# `mixedcages.girth` as a package attribute is the function, not the
# module, so modules are taken from the import system.
_search, _girth, _iso, _graphs, _matrixio, _constructions = (
    importlib.import_module(f"mixedcages.{m}")
    for m in ("search", "girth", "isomorphism", "graphs", "matrixio", "constructions")
)

HERE = Path(__file__).resolve().parent

SEARCH_LABELS = {
    "decide": ("3-6-30-focus", "3-5-20-focus"),
    "enumerate": ("3-4-12-focus", "3-4-12-lex"),
}
TINY_SEARCH_LABELS = {
    "decide": ("3-3-6-focus", "3-4-8-focus"),
    "enumerate": ("3-4-10-focus", "3-4-10-lex"),
}
# The specs that get their own per-layer self-time metric.
SPEC_METRIC_LABELS = SEARCH_LABELS["decide"] + SEARCH_LABELS["enumerate"]
TINY_CERTIFY = ("g30", "c30")
RELABELINGS = 3
# Petersen's automorphism-group cost depends on its labeling by a factor
# of about 50 (0.07 s to 4 s over 100 random relabelings), so relabelings
# drawn from --seed made certify's run_s depend on the seed: its spread
# over ten seeds was 35% of the median.  Its relabelings come from this
# fixed seed instead; the other graphs' costs barely depend on labeling.
FIXED_SEEDS = {"petersen": 0}


def _load(name: str) -> dict:
    with open(HERE / "expected" / name) as f:
        return json.load(f)


def setup(name: str, seed: int, tiny: bool):
    """Construct a workload's inputs; the caller times this."""
    if name == "certify":
        graphs = _load("graphs.json")["graphs"]
        return Certify(seed, TINY_CERTIFY if tiny else tuple(graphs), graphs)
    labels = (TINY_SEARCH_LABELS if tiny else SEARCH_LABELS)[name]
    return SearchWorkload(labels, _load("searches.json")["searches"])


class SearchWorkload:
    """One request per search spec.  Every outcome is checked against
    its committed status, class count and SearchStats; later specs of a
    pass must give the same canonical encodings as the first when the
    class counts are meant to agree (the enumerate cross-check)."""

    def __init__(self, labels, expected: dict) -> None:
        self.cases = []
        self.refs = {}
        for label in labels:
            exp = expected[label]
            ref = exp["isomorphic_to"]  # a build_<ref> function in constructions
            if ref is not None and ref not in self.refs:
                self.refs[ref] = getattr(_constructions, f"build_{ref}")()
            self.cases.append((label, _search.SearchSpec(**exp["spec"]), exp))
        self.cross_check = all(e["spec"]["mode"] == "enumerate" for _, _, e in self.cases)

    def run_pass(self, rec) -> None:
        first_forms = None
        for label, spec, exp in self.cases:
            with rec.request("search", label, ops=1) as req:
                out = _search.search_order(spec)
                stats = out.stats.as_dict()
                req.counts = dict(stats, classes=len(out.witnesses))
                problems = []
                if out.status != exp["status"]:
                    problems.append(f"status {out.status}, expected {exp['status']}")
                if len(out.witnesses) != exp["classes"]:
                    problems.append(f"{len(out.witnesses)} classes, expected {exp['classes']}")
                drift = {k: (v, exp["stats"][k]) for k, v in stats.items()
                         if v != exp["stats"][k]}
                if drift:
                    problems.append("stats drift (got, expected): " + json.dumps(drift))
                ref = exp["isomorphic_to"]
                if ref is not None and out.witnesses and not _iso.is_isomorphic(
                        out.witnesses[0], self.refs[ref])[0]:
                    problems.append(f"witness not isomorphic to {ref}")
                if self.cross_check:
                    forms = {_iso.canonical_form(w).encoding for w in out.witnesses}
                    if first_forms is None:
                        first_forms = forms
                    elif forms != first_forms:
                        problems.append("canonical encodings differ from "
                                        f"{self.cases[0][0]}: {len(forms ^ first_forms)} "
                                        "not in both")
                req.verdict("search", problems)


def _relabel(rows: list[list[str]], perm: list[int]) -> str:
    """Matrix text of the graph with vertex v renamed perm[v]."""
    n = len(rows)
    out = [["0"] * n for _ in range(n)]
    for i, row in enumerate(rows):
        pi = perm[i]
        for j, bit in enumerate(row):
            if bit == "1":
                out[pi][perm[j]] = "1"
    return "\n".join(" ".join(r) for r in out) + "\n"


class Case(NamedTuple):
    name: str
    expected: dict
    labelings: list[str]  # matrix texts, the file labeling first
    graph: object  # the file labeling, parsed
    partner: object  # the next base graph of the same order, or None


class Certify:
    """One request per certification of one labeling of one base graph:
    parse, verify (degrees, girth, witness), aut (order and fingerprint),
    iso against the file labeling (with its witness checked here), and
    iso against the next base graph of the same order, where there is
    one.  Every pass certifies the same labelings."""

    def __init__(self, seed: int, names, expected: dict) -> None:
        rng = random.Random(seed)
        texts = {name: (HERE / expected[name]["file"]).read_text() for name in names}
        graphs = {name: _matrixio.read_adjacency_matrix(t) for name, t in texts.items()}
        self.cases = []
        for name in names:
            rows = [line.split() for line in texts[name].splitlines() if line.strip()]
            n = len(rows)
            stream = random.Random(FIXED_SEEDS[name]) if name in FIXED_SEEDS else rng
            labelings = [texts[name]] + [
                _relabel(rows, stream.sample(range(n), n)) for _ in range(RELABELINGS)]
            self.cases.append(Case(name, expected[name], labelings, graphs[name],
                                   graphs.get(expected[name]["partner"])))

    def run_pass(self, rec) -> None:
        for case in self.cases:
            ops = 4 if case.partner is not None else 3
            for k, text in enumerate(case.labelings):
                with rec.request("certify", f"{case.name}/{k}", ops=ops) as req:
                    _certify(req, text, case)


def _certify(req, text: str, case: Case) -> None:
    exp, h, partner = case.expected, case.graph, case.partner
    g = _matrixio.read_adjacency_matrix(text)

    profile = _graphs.degree_profile(g)
    gr = _girth.girth(g)
    _girth.validate_witness(g, gr.witness)
    problems = []
    if list(profile.regular or []) != (exp["regular"] or []):
        problems.append(f"regular {profile.regular}, expected {exp['regular']}")
    if gr.girth != exp["girth"] or gr.witness.length != exp["girth"]:
        problems.append(f"girth {gr.girth}, expected {exp['girth']}")
    req.verdict("verify", problems)

    group = _iso.automorphism_group(g)
    fp = _iso.group_fingerprint(group)
    got = (group.order, fp.abelian, fp.max_element_order, fp.name)
    want = (exp["aut_order"], exp["abelian"], exp["max_element_order"], exp["name"])
    req.verdict("aut", [] if got == want else [f"group {got}, expected {want}"])

    ok, w = _iso.is_isomorphic(g, h)
    problems = []
    if not ok or w is None:
        problems.append("not isomorphic to its file labeling")
    else:
        img = w.image
        edges = {(min(img[u], img[v]), max(img[u], img[v])) for u, v in g.edges}
        arcs = {(img[u], img[v]) for u, v in g.arcs}
        if edges != h.edges or arcs != h.arcs:
            problems.append("witness does not map g onto its file labeling")
    req.verdict("iso+", problems)

    if partner is not None:
        ok, w = _iso.is_isomorphic(g, partner)
        req.verdict("iso-", [] if not ok and w is None else ["isomorphic to its partner"])
