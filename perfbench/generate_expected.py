"""One-off generator for the `certify` inputs and their expected values.

Writes the 33 base graphs of the `certify` workload as adjacency-matrix
files under `perfbench/data/` and their expected verdicts to
`perfbench/expected/graphs.json`.  The graphs themselves come from
mixedcages (the order-30 construction, the m=12 three-row variant and
the 29 classes of the (3,1,4) enumeration at order 12) or from literal
edge lists (Petersen, directed C30).  The expected values do not: they
are computed with networkx, which is not a package dependency, and the
paper and textbook values are pinned next to them and must agree.

    PYTHONPATH=src python3 perfbench/generate_expected.py

The timed benchmark never imports networkx; it reads the committed
files.  Re-run this script only when the set of base graphs changes.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import networkx as nx

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mixedcages as mc  # noqa: E402
from mixedcages.constructions import ThreeRowRecipe, build_three_row  # noqa: E402

# Paper and textbook values; networkx must reproduce every one of them.
PINNED = {
    "g30": {"girth": 6, "aut_order": 20, "name": "Z2 x Z10"},
    "petersen": {"girth": 5, "aut_order": 120},
    "c30": {"girth": 30, "aut_order": 30},
    "m12": {"girth": 5},
}

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


def base_graphs() -> list[tuple[str, int, list, list]]:
    """(name, n, edges, arcs) in the order the benchmark certifies them."""
    g30 = mc.build_g30()
    m12 = build_three_row(
        ThreeRowRecipe(m=12, cross_offset=6, upper_offsets=(2, -2), chord_offset=6)
    )
    classes = mc.search_order(
        mc.SearchSpec(r=3, g=4, n=12, mode="enumerate", branch_policy="lex")
    ).witnesses
    out = [
        ("g30", 30, g30.sorted_edges(), g30.sorted_arcs()),
        ("petersen", 10, PETERSEN_EDGES, []),
        ("c30", 30, [], [(i, (i + 1) % 30) for i in range(30)]),
        ("m12", 36, m12.sorted_edges(), m12.sorted_arcs()),
    ]
    for i, w in enumerate(classes):
        out.append((f"class{i:02d}", 12, w.sorted_edges(), w.sorted_arcs()))
    return out


def matrix_text(n: int, edges, arcs) -> str:
    m = [[0] * n for _ in range(n)]
    for u, v in edges:
        m[u][v] = m[v][u] = 1
    for u, v in arcs:
        m[u][v] = 1
    return "\n".join(" ".join(map(str, row)) for row in m) + "\n"


def digraph(n: int, edges, arcs) -> nx.DiGraph:
    """Edges become reciprocal arc pairs.  The matrix format excludes
    antiparallel arcs and an edge sharing a pair with an arc, so a
    reciprocal pair is an edge and isomorphisms of these digraphs are
    exactly isomorphisms of the mixed graphs."""
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    for u, v in edges:
        d.add_edge(u, v)
        d.add_edge(v, u)
    d.add_edges_from(arcs)
    return d


def mixed_girth(d: nx.DiGraph, n: int) -> int | None:
    """Shortest simple directed cycle of length >= 3.  A length-2 cycle
    in `d` is an edge walked there and back, which is not a cycle."""
    for bound in range(3, n + 1):
        if any(len(c) >= 3 for c in nx.simple_cycles(d, length_bound=bound)):
            return bound
    return None


def regularity(n: int, edges, arcs) -> list[int] | None:
    deg, out, inn = [0] * n, [0] * n, [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for u, v in arcs:
        out[u] += 1
        inn[v] += 1
    if len(set(deg)) == 1 and len(set(out)) == 1 and out == inn:
        return [deg[0], out[0]]
    return None


def compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[x] for x in q)


def element_order(p: tuple) -> int:
    k, q, ident = 1, p, tuple(range(len(p)))
    while q != ident:
        q = compose(p, q)
        k += 1
    return k


def group_facts(d: nx.DiGraph, n: int) -> dict:
    matcher = nx.algorithms.isomorphism.DiGraphMatcher(d, d)
    elements = [tuple(m[v] for v in range(n)) for m in matcher.isomorphisms_iter()]
    abelian = all(
        compose(a, b) == compose(b, a) for a, b in itertools.combinations(elements, 2)
    )
    max_order = max(element_order(e) for e in elements)
    order = len(elements)
    # the naming convention of mixedcages.group_fingerprint
    name = None
    if abelian and max_order == order:
        name = f"Z{order}"
    elif abelian and order == 20 and max_order == 10:
        name = "Z2 x Z10"
    elif not abelian and order == 6:
        name = "S3"
    return {"aut_order": order, "abelian": abelian,
            "max_element_order": max_order, "name": name}


def main() -> None:
    graphs = base_graphs()
    data_dir = HERE / "data"
    data_dir.mkdir(exist_ok=True)
    digraphs = {name: digraph(n, e, a) for name, n, e, a in graphs}
    expected = {}
    for idx, (name, n, edges, arcs) in enumerate(graphs):
        (data_dir / f"{name}.txt").write_text(matrix_text(n, edges, arcs))
        same_order = [g[0] for g in graphs[idx + 1:] + graphs[:idx] if g[1] == n]
        partner = same_order[0] if same_order else None
        if partner is not None and nx.is_isomorphic(digraphs[name], digraphs[partner]):
            raise SystemExit(f"{name} and {partner} are isomorphic")
        entry = {
            "file": f"data/{name}.txt",
            "order": n,
            "regular": regularity(n, edges, arcs),
            "girth": mixed_girth(digraphs[name], n),
            **group_facts(digraphs[name], n),
            "partner": partner,
        }
        for key, value in PINNED.get(name, {}).items():
            if entry[key] != value:
                raise SystemExit(f"{name}: {key} = {entry[key]}, pinned {value}")
        expected[name] = entry
        print(name, {k: entry[k] for k in ("order", "girth", "aut_order", "name")})
    classes = [name for name in expected if name.startswith("class")]
    for a, b in itertools.combinations(classes, 2):
        if nx.is_isomorphic(digraphs[a], digraphs[b]):
            raise SystemExit(f"{a} and {b} are isomorphic")
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in expected.items())
    text = (
        "{\n"
        f' "generator": "perfbench/generate_expected.py",\n'
        f' "networkx": {json.dumps(nx.__version__)},\n'
        f' "pinned": {json.dumps(PINNED)},\n'
        f' "graphs": {{\n{rows}\n }}\n'
        "}\n"
    )
    out = HERE / "expected" / "graphs.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)


if __name__ == "__main__":
    main()
