"""Command-line front door: build, verify, bounds, girth, aut, iso, search.

Every subcommand accepts ``--json`` for machine-readable output (human
text and JSON never share a stream) and uses ``-`` for standard
input/output in FILE positions.  Exit codes are a stable contract:

    0  success / PASS
    1  negative verdict (verification FAIL, non-isomorphic, no witness)
    2  usage error
    3  I/O or parse error, or a worker process died
    4  budget exceeded / inconclusive

Example pipeline::

    mixedcages build g30 | mixedcages verify --r 3 --z 1 --g 6 -
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from concurrent.futures import BrokenExecutor

from . import __version__
from .bounds import ahm_bound, moore_bound
from .constructions import build_g30
from .girth import CycleWitness, girth
from .graphs import MixedGraph, Permutation, degree_profile
from .isomorphism import (
    TooLargeError,
    automorphism_group,
    group_fingerprint,
    is_isomorphic,
)
from .matrixio import (
    MatrixParseError,
    UnrepresentableError,
    export_dot,
    read_adjacency_matrix,
    write_adjacency_matrix,
)
from .search import (
    CheckpointError,
    InconclusiveError,
    SearchSpec,
    determine_cage_number,
    graph_payload,
    search_order,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Entry point with injectable streams (tests drive this directly)."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=stderr)
        return EXIT_USAGE
    if getattr(args, "command", None) is None:
        parser.print_usage(stderr)
        return EXIT_USAGE
    try:
        return args.func(args, stdin, stdout, stderr)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=stderr)
        return EXIT_USAGE
    except (OSError, MatrixParseError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_IO
    except BrokenExecutor as exc:
        # a dead worker decided nothing: never report it as "no witness"
        print(f"error: worker process failed: {exc}", file=stderr)
        return EXIT_IO


def _build_parser() -> _Parser:
    parser = _Parser(prog="mixedcages", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("bounds", help="degree/diameter lower bounds")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("build", help="emit a built-in construction")
    p.add_argument("name", choices=["g30"])
    p.add_argument("--format", choices=["matrix", "dot"], default="matrix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check regularity and girth of a matrix")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("file")
    p.add_argument("--allow-header", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("girth", help="shortest mixed cycle")
    p.add_argument("file")
    p.add_argument("--allow-header", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_girth)

    p = sub.add_parser("aut", help="automorphism group")
    p.add_argument("file")
    p.add_argument("--allow-header", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("iso", help="isomorphism test")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--allow-header", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("export", help="re-emit a matrix in another format")
    p.add_argument("file")
    p.add_argument("--format", choices=["matrix", "dot"], default="dot")
    p.add_argument("--allow-header", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("search", help="exhaustive (r,1,g) search")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument(
        "--auto",
        action="store_true",
        help="scan orders upward from the lower bound",
    )
    p.add_argument("--n-max", type=int, default=None,
                   help="order cap for --auto (default: bound + 5)")
    p.add_argument("--enumerate", action="store_true", dest="enumerate_all")
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=None)
    p.add_argument("--checkpoint", default=None,
                   help="resume from this file if present; write it on budget exhaustion")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes; results are identical to one"
                        " process")
    p.add_argument(
        "--branch-policy", choices=["auto", "lex", "focus"], default="auto",
        help="vertex completion order: lex enables orderly isomorph"
             " rejection, focus fails fast (default: mode-dependent)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    return parser


# ---------------------------------------------------------------------------
# helpers


def _read_graph(path: str, stdin, allow_header: bool, stderr=None) -> MixedGraph:
    if path == "-":
        text = stdin.read()
    else:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    if not allow_header:
        return read_adjacency_matrix(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = read_adjacency_matrix(text, allow_header=True)
    if stderr is not None:
        for w in caught:
            print(f"note: {w.message}", file=stderr)
    return g


def _emit_json(stdout, payload: dict) -> None:
    json.dump(payload, stdout, indent=2, sort_keys=True)
    stdout.write("\n")


def _witness_json(w: CycleWitness | None) -> dict | None:
    if w is None:
        return None
    return {"vertices": list(w.vertices), "steps": list(w.steps)}


def _witness_text(w: CycleWitness) -> str:
    parts = [str(w.vertices[0])]
    for v, step in zip(w.vertices[1:], w.steps):
        arrow = "->" if step == "arc" else "--"
        parts.append(f"{arrow} {v}")
    return " ".join(parts)


def _perm_json(p: Permutation | None) -> dict | None:
    if p is None:
        return None
    return {"image": list(p.image), "cycles": p.cycle_notation()}


def _graph_report(g: MixedGraph) -> dict:
    """Structured witness: always the edge/arc lists, plus the matrix
    text when the graph fits the matrix format."""
    payload = graph_payload(g)
    try:
        payload["matrix"] = write_adjacency_matrix(g)
    except UnrepresentableError:
        payload["matrix"] = None
    return payload


def _graph_text(g: MixedGraph) -> str:
    try:
        return write_adjacency_matrix(g)
    except UnrepresentableError:
        return (
            f"n={g.n}\nedges: {g.sorted_edges()}\narcs: {g.sorted_arcs()}"
        )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bounds(args, stdin, stdout, stderr) -> int:
    try:
        table = [[d, moore_bound(args.r, d)] for d in range(args.g + 1)]
        ahm = ahm_bound(args.r, args.g)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if args.json:
        _emit_json(stdout, {
            "r": args.r, "g": args.g, "moore": table, "ahm": ahm,
        })
        return EXIT_OK
    print(f"moore bound, degree r={args.r}:", file=stdout)
    for d, value in table:
        print(f"  depth {d}: {value}", file=stdout)
    print(f"ahm bound f({args.r},1,{args.g}) >= {ahm}", file=stdout)
    return EXIT_OK


def _cmd_build(args, stdin, stdout, stderr) -> int:
    g = build_g30()
    if args.json:
        payload = {"name": args.name, "n": g.n, "edges": len(g.edges),
                   "arcs": len(g.arcs)}
        if args.format == "matrix":
            payload["matrix"] = write_adjacency_matrix(g)
        else:
            payload["dot"] = export_dot(g)
        _emit_json(stdout, payload)
        return EXIT_OK
    text = write_adjacency_matrix(g) if args.format == "matrix" else export_dot(g)
    print(text, file=stdout)
    return EXIT_OK


def _cmd_verify(args, stdin, stdout, stderr) -> int:
    g = _read_graph(args.file, stdin, args.allow_header, stderr)
    profile = degree_profile(g)
    gr = girth(g)
    ok = profile.regular == (args.r, args.z) and gr.girth == args.g
    if args.json:
        _emit_json(stdout, {
            "order": g.n,
            "edges": len(g.edges),
            "arcs": len(g.arcs),
            "regular": list(profile.regular) if profile.regular else None,
            "girth": gr.girth,
            "girth_witness": _witness_json(gr.witness),
            "expected": {"r": args.r, "z": args.z, "g": args.g},
            "pass": ok,
        })
        return EXIT_OK if ok else EXIT_FAIL
    print(f"order: {g.n}", file=stdout)
    if profile.regular:
        print(f"regular: r={profile.regular[0]} z={profile.regular[1]}",
              file=stdout)
    else:
        print(f"not regular: degree range {min(profile.deg)}..{max(profile.deg)}, "
              f"out {min(profile.outdeg)}..{max(profile.outdeg)}, "
              f"in {min(profile.indeg)}..{max(profile.indeg)}", file=stdout)
    print(f"girth: {gr.girth if gr.girth is not None else 'infinite'}",
          file=stdout)
    if gr.witness is not None:
        print(f"shortest cycle: {_witness_text(gr.witness)}", file=stdout)
    print("PASS" if ok else "FAIL", file=stdout)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_girth(args, stdin, stdout, stderr) -> int:
    g = _read_graph(args.file, stdin, args.allow_header, stderr)
    gr = girth(g)
    if args.json:
        _emit_json(stdout, {
            "girth": gr.girth,
            "witness": _witness_json(gr.witness),
        })
        return EXIT_OK
    if gr.girth is None:
        print("girth: infinite (acyclic)", file=stdout)
    else:
        print(f"girth: {gr.girth}", file=stdout)
        if gr.witness is None:
            raise RuntimeError(f"girth {gr.girth} reported without a witness")
        print(f"witness: {_witness_text(gr.witness)}", file=stdout)
    return EXIT_OK


def _cmd_aut(args, stdin, stdout, stderr) -> int:
    g = _read_graph(args.file, stdin, args.allow_header, stderr)
    group = automorphism_group(g)
    try:
        fp = group_fingerprint(group)
        fp_payload = {
            "abelian": fp.abelian,
            "max_element_order": fp.max_element_order,
            "name": fp.name,
        }
    except TooLargeError:
        fp = None
        fp_payload = None
    if args.json:
        _emit_json(stdout, {
            "order": group.order,
            "generators": [p.cycle_notation() for p in group.generators],
            "fingerprint": fp_payload,
        })
        return EXIT_OK
    print(f"automorphism group order: {group.order}", file=stdout)
    for p in group.generators:
        print(f"  generator: {p.cycle_notation()}", file=stdout)
    if fp is not None:
        abelian = "abelian" if fp.abelian else "non-abelian"
        name = f" = {fp.name}" if fp.name else ""
        print(f"structure: {abelian}, max element order "
              f"{fp.max_element_order}{name}", file=stdout)
    return EXIT_OK


def _cmd_iso(args, stdin, stdout, stderr) -> int:
    g = _read_graph(args.file1, stdin, args.allow_header, stderr)
    h = _read_graph(args.file2, stdin, args.allow_header, stderr)
    verdict, witness = is_isomorphic(g, h)
    if args.json:
        _emit_json(stdout, {
            "isomorphic": verdict,
            "witness": _perm_json(witness),
        })
        return EXIT_OK if verdict else EXIT_FAIL
    print(f"isomorphic: {'yes' if verdict else 'no'}", file=stdout)
    if witness is not None:
        print(f"witness: {witness.cycle_notation()}", file=stdout)
    return EXIT_OK if verdict else EXIT_FAIL


def _cmd_export(args, stdin, stdout, stderr) -> int:
    g = _read_graph(args.file, stdin, args.allow_header, stderr)
    text = write_adjacency_matrix(g) if args.format == "matrix" else export_dot(g)
    if args.json:
        _emit_json(stdout, {"n": g.n, args.format: text})
        return EXIT_OK
    print(text, file=stdout)
    return EXIT_OK


def _cmd_search(args, stdin, stdout, stderr) -> int:
    if args.threads < 1:
        raise _UsageError("--threads must be >= 1")
    if args.auto:
        return _cmd_search_auto(args, stdout)
    mode = "enumerate" if args.enumerate_all else "decide"
    try:
        spec = SearchSpec(
            r=args.r, g=args.g, n=args.n, mode=mode,
            node_budget=args.budget_nodes, time_budget=args.budget_secs,
            branch_policy=args.branch_policy,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))
    checkpoint = None
    if args.checkpoint:
        try:
            with open(args.checkpoint, "r", encoding="ascii") as fh:
                checkpoint = json.load(fh)
            print(f"resuming from {args.checkpoint}", file=stderr)
        except FileNotFoundError:
            checkpoint = None
        except ValueError as exc:  # invalid JSON or non-ASCII bytes
            print(f"error: corrupt checkpoint {args.checkpoint}: {exc}",
                  file=stderr)
            return EXIT_IO
    try:
        outcome = search_order(spec, checkpoint=checkpoint,
                               workers=args.threads)
    except CheckpointError as exc:
        print(f"error: corrupt checkpoint {args.checkpoint}: {exc}",
              file=stderr)
        return EXIT_IO
    except ValueError as exc:
        # e.g. a checkpoint recorded for different search parameters
        raise _UsageError(str(exc))
    payload = {
        "spec": spec.key(),
        "status": outcome.status,
        "witnesses": [_graph_report(w) for w in outcome.witnesses],
        "stats": outcome.stats.as_dict(),
    }
    if outcome.status == "budget_exceeded" and args.checkpoint:
        _write_checkpoint(args.checkpoint, outcome.checkpoint)
        print(f"checkpoint written to {args.checkpoint}", file=stderr)
    if args.json:
        _emit_json(stdout, payload)
    else:
        print(f"status: {outcome.status}", file=stdout)
        print(f"stats: {outcome.stats.as_dict()}", file=stdout)
        for i, w in enumerate(outcome.witnesses):
            print(f"witness {i}: n={w.n}, {len(w.edges)} edges, "
                  f"{len(w.arcs)} arcs", file=stdout)
        if outcome.witnesses and not args.enumerate_all:
            print(_graph_text(outcome.witnesses[0]), file=stdout)
    if outcome.status == "budget_exceeded":
        return EXIT_BUDGET
    if outcome.status == "found":
        return EXIT_OK
    return EXIT_FAIL


def _write_checkpoint(path: str, checkpoint: dict) -> None:
    """Write a checkpoint to a temporary file beside ``path``, then move
    it into place: a write that fails or is interrupted leaves the
    previous checkpoint intact and no temporary file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(checkpoint, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _cmd_search_auto(args, stdout) -> int:
    ignored = [flag for flag, given in (
        ("--checkpoint", args.checkpoint),
        ("--enumerate", args.enumerate_all),
        ("--branch-policy", args.branch_policy != "auto"),
    ) if given]
    if ignored:
        raise _UsageError(f"--auto does not take {', '.join(ignored)}")
    n_max = args.n_max
    if n_max is None:
        n_max = ahm_bound(args.r, args.g) + 5
    try:
        result = determine_cage_number(
            args.r, args.g, n_max,
            node_budget=args.budget_nodes, time_budget=args.budget_secs,
            workers=args.threads,
        )
    except InconclusiveError as exc:
        if args.json:
            _emit_json(stdout, {
                "status": "inconclusive",
                "reason": str(exc),
                "exhausted_orders": list(exc.exhausted_orders),
            })
        else:
            print(f"inconclusive: {exc}", file=stdout)
        return EXIT_BUDGET
    if args.json:
        _emit_json(stdout, {
            "status": "determined",
            "r": result.r, "z": result.z, "g": result.g,
            "value": result.value,
            "provenance": result.provenance,
            "exhausted_orders": list(result.exhausted_below),
            "witness": _graph_report(result.witness),
        })
    else:
        print(f"f({result.r},{result.z},{result.g}) = {result.value} "
              f"({result.provenance})", file=stdout)
        if result.exhausted_below:
            print(f"orders proven empty: {list(result.exhausted_below)}",
                  file=stdout)
        print(_graph_text(result.witness), file=stdout)
    return EXIT_OK
