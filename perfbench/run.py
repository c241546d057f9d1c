"""Benchmark for mixedcages: the `decide`, `enumerate` and `certify` workloads.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One process runs one workload serially (a closed loop with
one client, no pool), repeating whole passes until `--seconds` is
spent, and checks every output against the committed expected values.

Every time it reports is in reference seconds (see `speed.py`): wall
time corrected for the host's speed, which a probe samples every 20 ms
of the run.  With `--trace 0` it prints the end-to-end metrics:
`setup_s` (import plus input construction: the median of SETUP_REPEATS
set-ups that each import the package afresh and build the inputs, after
a first, cold one), `run_s` (median pass), `call_p50_ms` and
`call_p92_ms` (latency of one request: a search spec or a
certification; percentiles over the requests of a pass, each request
at its median latency over the passes) and `peak_rss_mb`.  With
`--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics reduced from the spans of the traced passes (see
`spans.py`).

Each run writes `perfbench/results/<workload>-seed<seed>-trace<t>.json`
with provenance, and a traced run also the spans as `...trace.json`.
The last line of standard output is the JSON result.  `--smoke` runs
every workload on tiny inputs in both modes and checks the metric
names against BENCHMARK.json and that nothing failed.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import ReferenceClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("decide", "enumerate", "certify")
SETUP_REPEATS = 21


def import_package():
    """Import mixedcages from this checkout's `src/`, never another copy."""
    src = ROOT / "src"
    if not (src / "mixedcages" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {src / 'mixedcages'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mixedcages
    if Path(mixedcages.__file__).resolve().parent != (src / "mixedcages").resolve():
        raise SystemExit(f"perfbench: imported mixedcages from {mixedcages.__file__}")
    return mixedcages


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def set_up(args):
    """Import the package and the workloads module afresh (dropping any
    earlier import) and build the workload's inputs."""
    for name in [m for m in sys.modules
                 if m in ("mixedcages", "workloads") or m.startswith("mixedcages.")]:
        del sys.modules[name]
    mc = import_package()
    import workloads
    return mc, workloads, workloads.setup(args.workload, args.seed, args.tiny)


def measure(work, rec, seconds: float, traced: bool) -> None:
    """Run passes until `seconds` of wall time is spent.  A traced run
    alternates untraced and traced passes, starting untraced, and runs at
    least one of each.  A pass is not started if it would end past
    `seconds`."""
    begin = perf_counter()
    times: list[float] = []
    while True:
        index = len(times)
        tracing = traced and index % 2 == 1
        rec.pass_index = index
        if tracing:
            rec.install()
        t0 = perf_counter()
        try:
            work.run_pass(rec)
        finally:
            dt = perf_counter() - t0
            if tracing:
                rec.uninstall()
        times.append(dt)
        rec.passes.append({"index": index, "traced": tracing, "t0": t0, "t1": t0 + dt})
        elapsed = perf_counter() - begin
        if len(times) >= (2 if traced else 1) and elapsed + statistics.median(times) > seconds:
            return


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args, bench: dict, clock: ReferenceClock) -> dict:
    import numpy

    from spans import Recorder, per_layer_metrics, print_table, reduce

    # The first set-up also pays for the interpreter's and numpy's own
    # imports, whose time on a shared host moves with it more than the
    # speed probe tracks, so `setup_s` is the median of the set-ups after
    # it.  A traced run builds the inputs once more, under the wrappers.
    mc, wl, work = set_up(args)
    setups = [(START, perf_counter())]
    rec = Recorder()
    if args.trace:
        rec.install()
        try:
            with rec.request("setup", args.workload, ops=0):
                work = wl.setup(args.workload, args.seed, args.tiny)
        finally:
            rec.uninstall()
    else:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            mc, wl, work = set_up(args)
            setups.append((t0, perf_counter()))
            gc.collect()  # frees the previous import, which peak_rss_mb must not count
    measure(work, rec, args.seconds, bool(args.trace))
    clock.stop()
    rec.retime(clock.ref)
    setup_s = [clock.interval(a, b) for a, b in setups]

    search_requests = [r for r in rec.requests if r.kind == "search"]
    plain = [r for r in rec.requests if r.kind != "setup"
             and not rec.passes[r.pass_index]["traced"]]
    pass_times = [p["seconds"] for p in rec.passes if not p["traced"]]
    wall_times = [p["wall_seconds"] for p in rec.passes if not p["traced"]]
    latencies_ms: dict[str, list[float]] = {}
    for r in plain:
        latencies_ms.setdefault(r.label, []).append(r.seconds * 1e3)
    info = {"error_rate": (rec.failed / rec.attempted, "ratio")}
    if search_requests:
        nodes = sum(r.counts.get("nodes", 0) for r in search_requests)
        info["nodes_per_s"] = (nodes / sum(r.seconds for r in search_requests), "1/s")
    if args.trace:
        trace = rec.as_trace(wl.SPEC_METRIC_LABELS)
        values, problems = reduce(trace)
        for p in problems:
            print(f"span check: {p}", file=sys.stderr)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in per_layer_metrics(wl.SPEC_METRIC_LABELS)}
    else:
        problems = []
        # every pass makes the same requests; a request's typical latency
        # is its median over passes, which a burst of host noise in one
        # pass does not move
        typical_ms = [statistics.median(v) for v in latencies_ms.values()]
        centiles = statistics.quantiles(typical_ms, n=100, method="inclusive")
        # p92 leaves 11 of certify's 132 requests beyond it.  p90 falls
        # where the seeded relabelings of the 10-15 ms graphs meet the
        # 16-20 ms ones, which made it spread 18% over ten seeds, so it is
        # recorded but not gated
        info["call_p90_ms"] = (centiles[89], "ms")
        metrics = {
            "setup_s": {"value": statistics.median(setup_s[1:]), "unit": "s"},
            "run_s": {"value": statistics.median(pass_times), "unit": "s"},
            "call_p50_ms": {"value": statistics.median(typical_ms), "unit": "ms"},
            "call_p92_ms": {"value": centiles[91], "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }

    print(f"workload {args.workload}  seed {args.seed}  passes {len(rec.passes)}  "
          f"requests {len(plain)}  ops {rec.attempted}  failed {rec.failed}")
    if args.trace:
        print_table(values, wl.SPEC_METRIC_LABELS)
        print(f"  span check: {len(trace['spans'])} spans, {len(problems)} problems")
    else:
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:>14.6g} {m['unit']}")
    for name, (value, unit) in info.items():
        print(f"  {name:<16} {value:>14.6g} {unit}  (recorded, not gated)")

    result = {
        "correct": rec.failed == 0 and not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else "")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny,
                  why=next((w["why"] for w in bench["workloads"]
                            if w["name"] == args.workload), None),
                  recorded={k: {"value": v, "unit": u} for k, (v, u) in info.items()},
                  cold_setup_s=setup_s[0], setup_samples_s=setup_s[1:], passes=rec.passes,
                  request_latencies_ms=latencies_ms,
                  search_stats={r.label: r.counts for r in search_requests
                                if r.pass_index == 0},
                  provenance={
                      "python": platform.python_version(),
                      "numpy": numpy.__version__,
                      "mixedcages": mc.__version__,
                      "nproc": len(os.sched_getaffinity(0)),
                      "cpu_model": cpu_model(),
                      "git_commit": git_commit(),
                      "run_count": len(rec.passes),
                      "run_s_spread": spread(pass_times),
                      "wall_run_s_spread": spread(wall_times),
                      "wall_run_s_median": statistics.median(wall_times),
                      "speed_probes": len(clock.starts),
                      "speed_probe_median_ms": clock.probe_median_s() * 1e3,
                  })
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(RESULTS / f"{stem}.trace.json", "w") as f:
            json.dump(trace, f, separators=(",", ":"))
    return result


def smoke(bench: dict) -> int:
    """Every workload on tiny inputs, in both modes, as separate runs."""
    expected = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170,
            )
            problems = []
            try:
                result = json.loads(out.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = None
                problems.append(f"no result line (exit {out.returncode}): {out.stderr[-500:]}")
            if result is not None:
                names = set(result["metrics"])
                if names != expected[trace]:
                    problems.append(f"metric names differ from BENCHMARK.json: "
                                    f"{sorted(names ^ expected[trace])}")
                if result["failed"] or not result["correct"] or out.returncode:
                    problems.append(f"error_rate {result['failed']}/{result['attempted']}, "
                                    f"exit {out.returncode}: {out.stderr[-500:]}")
            print(f"smoke {workload} trace {trace}: "
                  + ("ok" if not problems else "; ".join(problems)))
            bad += bool(problems)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs and check the output")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    if args.smoke:
        return smoke(bench)
    if args.workload is None:
        parser.error("--workload is required")
    clock = ReferenceClock()
    clock.start()
    try:
        result = run(args, bench, clock)
    finally:
        clock.stop()
    # a wrong output is reported through "correct", not the exit code
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
