"""webnav benchmark: one workload per process, closed loop, one client.

    python3 benchmarks/run.py --workload desk-serial --seed 1 --seconds 15 --trace 0

Run from a checkout: the webnav under test is the checkout's src/webnav,
never an installed copy. With --trace 0 it reports the end-to-end metrics;
with --trace 1 the per-layer metrics (see benchmarks/README.md). The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODELS = ("pagerank", "bookrank", "abc")
# in traced tour order: desk-parallel first, so its ru_maxrss growth is
# least masked by earlier rounds
WORKLOADS = ("desk-parallel", "desk-serial", "roundtrip")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "clicks_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed by name but not in the JSON result: each applies to one workload
# only, or is 0 whenever the code is correct
PRINTED_ONLY = {
    "lines_per_s": "1/s",          # roundtrip
    "worker_peak_rss_mb": "MB",    # desk-parallel
    "fail_share": "ratio",
}

PER_LAYER = {
    "graph.generate_s": "s",
    "graph.us_per_node": "us",
    "host.ref_loop_s": "s",
    "host.cpu_speedup_2proc": "ratio",
    **{f"agents.{m}.us_per_step": "us" for m in MODELS},
    "agents.bookrank.mean_bookmarks": "count",
    **{f"session.{m}.{k}": u for m in MODELS
       for k, u in (("us_per_record", "us"), ("tallied_share", "ratio"))},
    **{f"run.{m}.us_per_click": "us" for m in MODELS},
    "run.write_outputs_s": "s",
    "run.bytes_written": "bytes",
    "run.tally_pickle_mb": "MB",
    "run.tally_pickle_s": "s",
    "run.tally_unpickle_s": "s",
    "run.merge_s": "s",
    "run.speedup_nw": "ratio",
    "run.result_mb_per_msession": "MB",
    "run.export_overhead_s": "s",
    "ingest.parse_us_per_line": "us",
    "ingest.sessionize_us_per_record": "us",
    "ingest.lines_skipped": "count",
    "metrics.fit_s": "s",
    "metrics.ks_s": "s",
    "run.compare_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
}


def import_webnav():
    """Put the checkout's src first on sys.path; refuse any other webnav."""
    if not (SRC / "webnav" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no webnav source at {SRC / 'webnav'}")
    sys.path.insert(0, str(SRC))
    import webnav
    if Path(webnav.__file__).resolve().parent != (SRC / "webnav").resolve():
        raise SystemExit(f"benchmark: imported webnav from {webnav.__file__}, "
                         f"not from {SRC}")


def _untraced(workload, bench, graph, seconds) -> tuple[dict, dict]:
    from workloads import median_of, run_round

    start = time.perf_counter()
    rounds = [run_round(bench, workload, graph)]
    # High-water marks after one pass: later rounds repeat the same work,
    # and the allocator fragmentation they add grows with the round count.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    while time.perf_counter() - start < seconds:
        rounds.append(run_round(bench, workload, graph))
    metrics = {
        "wall_s": median_of(rounds, "wall_s"),
        "clicks_per_s": median_of(rounds, "clicks_per_s"),
        "peak_rss_mb": peak_rss,
    }
    extras = {}
    if workload == "roundtrip":
        extras["lines_per_s"] = median_of(rounds, "lines_per_s")
    if workload == "desk-parallel":
        extras["worker_peak_rss_mb"] = worker_rss
    print(f"{workload}: {len(rounds)} rounds in "
          f"{time.perf_counter() - start:.2f} s, medians reported, "
          f"{rounds.count(None)} rounds failed")
    return metrics, extras


def _traced(workload, bench, graph, seconds) -> dict:
    """Host calibration, a tour of every workload, paired rounds, the probes.

    The tour runs one traced round of each workload, so every per-layer
    metric is measured whatever the workload. Then untraced and traced
    rounds of the named workload alternate until the time is up:
    trace.wall_s against trace.untraced_wall_s is the tracing overhead.
    """
    from probes import agent_probes, host_calibration
    from workloads import median_of, nproc, run_round

    sizes = bench.sizes
    metrics = host_calibration(sizes.burn_iters, nproc())
    start = time.perf_counter()
    bench.traced = True
    for name in WORKLOADS:
        run_round(bench, name, graph)
    traced, untraced = [], []
    while not traced or time.perf_counter() - start < seconds:
        for runs in (untraced, traced):
            bench.traced = runs is traced
            runs.append(run_round(bench, workload, graph))
    metrics.update({name: median(values) for name, values in bench.layer.items()})
    metrics["trace.wall_s"] = median_of(traced, "wall_s")
    metrics["trace.untraced_wall_s"] = median_of(untraced, "wall_s")
    bench.round_label = "probes"
    metrics.update(agent_probes(graph, bench.seed, sizes.probe_agents,
                                sizes.probe_steps))
    _print_spans(bench.spans)
    if metrics["trace.wall_s"] and metrics["trace.untraced_wall_s"]:
        overhead = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        print(f"tracing overhead: {overhead:+.4f} s per {workload} round "
              f"({overhead / metrics['trace.untraced_wall_s']:+.2%}), "
              f"{len(traced)} rounds each way")
    return metrics


def _print_spans(spans) -> None:
    totals = {}
    for name, begin, end, _ in spans:
        count, seconds = totals.get(name, (0, 0.0))
        totals[name] = (count + 1, seconds + end - begin)
    for name, (count, seconds) in sorted(totals.items()):
        print(f"span {name:<28} {count:>4} calls {seconds:>10.4f} s")


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_webnav()
    from workloads import DESK, Bench, setup_graph

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as out_root:
        bench = Bench(sizes or DESK, args.seed, Path(out_root))
        graph, setup_times = setup_graph(bench)
        if args.trace:
            values = _traced(args.workload, bench, graph, args.seconds)
            values["graph.generate_s"] = median(setup_times)
            values["graph.us_per_node"] = (median(setup_times)
                                           / bench.sizes.graph_n * 1e6)
            units, extras = PER_LAYER, {}
        else:
            values, extras = _untraced(args.workload, bench, graph, args.seconds)
            values["setup_s"] = median(setup_times)
            units = END_TO_END
    try:
        scratch.rmdir()
    except OSError:
        pass  # another run is still using it

    extras["fail_share"] = bench.failed / bench.attempted
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit in units.items()}
    shown = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    shown += [(name, value, PRINTED_ONLY[name]) for name, value in extras.items()]
    for name, value, unit in shown:
        text = "absent" if value is None else f"{value:.6g}"
        print(f"{name:<34} {text:>14} {unit}")
    print(f"{bench.failed} of {bench.attempted} operations failed")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
