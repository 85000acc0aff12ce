"""The three benchmark workloads, their output checks, and the traced extras.

A workload is a round function, run repeatedly (closed loop, one client)
until the run's time is up. Each round takes a fresh simulation seed
derived from the run seed, so a seed fixes every input. Only calls into
webnav are timed; building the interleaved log and checking outputs are
the benchmark's own work and stay outside every timed figure.
"""

from __future__ import annotations

import csv
import filecmp
import os
import pickle
import resource
import shutil
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from typing import NamedTuple

from webnav.graph import generate_scale_free
from webnav.ingest import ParseStats, parse_log, sessionize
from webnav.metrics import fit_power_law, histogram, ks_statistic
from webnav.run import (RunManifest, SimConfig, compare_runs, run_ingest,
                        simulate, write_outputs)

MODELS = ("pagerank", "bookrank", "abc")
GRAPH_M = 3
GRAPH_GAMMA = 2.1


@dataclass(frozen=True)
class Sizes:
    """Input sizes; DESK is the benchmark, tests shrink it."""

    graph_n: int = 100_000
    quota: int = 1000            # sessions per agent, desk scale
    serial_agents: int = 12      # per model, desk-serial
    parallel_agents: int = 32    # desk-parallel
    roundtrip_agents: int = 16   # roundtrip
    setup_repeats: int = 3       # graph builds per run; setup_s is their median
    probe_agents: int = 4        # per model, traced stepping probe
    probe_steps: int = 7000      # per probe agent, about 1000 pagerank sessions
    burn_iters: int = 2_000_000  # host calibration loop


DESK = Sizes()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class RoundFailed(Exception):
    """A timed call raised; the rest of its round cannot run."""


class Bench:
    """Counts operations, times calls into webnav, and keeps spans in memory.

    An operation is a timed call or an output check. A call that raises or
    a check that mismatches counts as failed.
    """

    def __init__(self, sizes: Sizes, seed: int, out_root: Path):
        self.sizes = sizes
        self.seed = seed
        self.out_root = out_root
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.spans = []                  # (name, start, end, round label)
        self.layer = defaultdict(list)   # per-layer metric -> samples
        self.round_label = "setup"
        self.rounds = 0                  # rounds started; numbers their seeds

    def call(self, name, fn, *args, **kwargs):
        """Run fn, timed; returns (value, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise RoundFailed(name) from exc
        end = time.perf_counter()
        self.spans.append((name, start, end, self.round_label))
        return value, end - start

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed [{self.round_label}]: {name} {detail}",
                  file=sys.stderr)
        return ok

    def record(self, name: str, value) -> None:
        """Keep a per-layer sample; only traced rounds measure layers."""
        if self.traced:
            self.layer[name].append(value)


def setup_graph(bench: Bench):
    """Build the run's graph setup_repeats times; returns (graph, seconds list)."""
    times = []
    graph = None
    for _ in range(bench.sizes.setup_repeats):
        graph, seconds = bench.call("graph.generate_scale_free",
                                    generate_scale_free, bench.sizes.graph_n,
                                    GRAPH_M, GRAPH_GAMMA, bench.seed)
        times.append(seconds)
    return graph, times


# ---------------------------------------------------------------------------
# output checks


class Rows(NamedTuple):
    """A count file summarised in constant memory."""

    rows: int
    total: int     # sum of the count column
    digest: int    # order-free multiset digest of the row texts


@dataclass
class Outputs:
    """What the checks need from a run's descriptor files."""

    sizes: Counter     # session size -> sessions
    depths: Counter    # session depth -> sessions
    pages: Rows
    links: Rows
    starts: Rows

    @property
    def n_sessions(self) -> int:
        return self.sizes.total()


def _summarise(path: Path) -> Rows:
    # hash() is stable within one process, which is all a comparison needs
    rows = total = digest = 0
    with open(path, "rt", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            rows += 1
            total += int(line[line.rindex(",") + 1:])
            digest += hash(line)
    return Rows(rows, total, digest)


def read_outputs(out: Path) -> Outputs:
    sizes, depths = Counter(), Counter()
    with open(out / "sessions.csv", "rt", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            sizes[int(row["size"])] += 1
            depths[int(row["depth"])] += 1
    return Outputs(sizes=sizes, depths=depths,
                   pages=_summarise(out / "page_traffic.csv"),
                   links=_summarise(out / "link_traffic.csv"),
                   starts=_summarise(out / "empty_referrer_traffic.csv"))


def tally_total(counts) -> int:
    # a tally may hold a Counter or a dense count array
    return int(sum(counts.values())) if hasattr(counts, "values") else int(counts.sum())


def check_simulation(bench: Bench, result, config: SimConfig, out: Path) -> Outputs:
    """Session count, size/visit conservation, and CSV sums against the tally."""
    tally = result.tally
    sizes = [d.size for d in result.descriptors]
    pages = tally_total(tally.page_visits)
    links = tally_total(tally.link_visits)
    starts = tally_total(tally.session_starts)
    expected = config.n_agents * config.sessions
    bench.check("sessions == agents x quota", len(sizes) == expected,
                f"{len(sizes)} != {expected}")
    bench.check("sum(size) == page visits", sum(sizes) == pages,
                f"{sum(sizes)} != {pages}")
    bench.check("sum(size - 1) == link visits", sum(sizes) - len(sizes) == links,
                f"{sum(sizes) - len(sizes)} != {links}")
    files = read_outputs(out)
    bench.check("sessions.csv rows == sessions", files.n_sessions == len(sizes))
    bench.check("page_traffic.csv sum == tally", files.pages.total == pages)
    bench.check("link_traffic.csv sum == tally", files.links.total == links)
    bench.check("empty_referrer_traffic.csv sum == tally",
                files.starts.total == starts == len(sizes))
    return files


def _dir_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


def _write(bench: Bench, result, out: Path):
    """write_outputs, timed; returns (manifest file entries, seconds)."""
    return bench.call("run.write_outputs", write_outputs, out,
                      result.descriptors, result.tally, result.entropies,
                      result.click_lengths)


# ---------------------------------------------------------------------------
# rounds: each returns {"wall_s", "clicks_per_s"}, roundtrip also "lines_per_s"


def desk_serial(bench: Bench, graph, seed: int, out: Path) -> dict:
    """pagerank, bookrank and abc in turn on one graph, one worker, no export."""
    wall = clicks = sim_s = 0.0
    write_s = written = 0
    for model in MODELS:
        config = SimConfig(model=model, n_agents=bench.sizes.serial_agents,
                           sessions=bench.sizes.quota, seed=seed, workers=1)
        result, t_sim = bench.call(f"run.simulate.{model}", simulate, config,
                                   graph=graph)
        model_out = out / model
        _, t_write = _write(bench, result, model_out)
        check_simulation(bench, result, config, model_out)
        wall += t_sim + t_write
        clicks += result.total_clicks
        sim_s += t_sim
        write_s += t_write
        written += _dir_bytes(model_out)
        bench.record(f"run.{model}.us_per_click", t_sim / result.total_clicks * 1e6)
    bench.record("run.write_outputs_s", write_s)
    bench.record("run.bytes_written", written)
    return {"wall_s": wall, "clicks_per_s": clicks / sim_s}


def desk_parallel(bench: Bench, graph, seed: int, out: Path) -> dict:
    """pagerank on nproc workers, then write_outputs."""
    config = SimConfig(model="pagerank", n_agents=bench.sizes.parallel_agents,
                       sessions=bench.sizes.quota, seed=seed, workers=nproc())
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result, t_sim = bench.call("run.simulate.pagerank", simulate, config,
                               graph=graph)
    rss_growth_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     - rss_before) / 1024
    _, t_write = _write(bench, result, out / "parallel")
    check_simulation(bench, result, config, out / "parallel")
    if bench.traced:
        _transfer_layers(bench, result)
        serial = replace(config, workers=1)
        twin, t_serial = bench.call("run.simulate.pagerank", simulate, serial,
                                    graph=graph)
        _write(bench, twin, out / "serial")
        differ = [p.name for p in sorted((out / "parallel").iterdir())
                  if not filecmp.cmp(p, out / "serial" / p.name, shallow=False)]
        bench.check(f"{config.workers} workers byte-identical to 1 worker",
                    not differ, f"differing files: {differ}")
        bench.record("run.speedup_nw", t_serial / t_sim)
        if "run.result_mb_per_msession" not in bench.layer:
            # a high-water mark grows only once; later rounds read ~0
            bench.record("run.result_mb_per_msession",
                         rss_growth_mb / result.total_sessions * 1e6)
    return {"wall_s": t_sim + t_write,
            "clicks_per_s": result.total_clicks / t_sim}


def _transfer_layers(bench: Bench, result) -> None:
    """What a worker's result tally costs to ship and fold back in."""
    start = time.perf_counter()
    blob = pickle.dumps(result.tally, protocol=pickle.HIGHEST_PROTOCOL)
    pickled = time.perf_counter()
    copy = pickle.loads(blob)
    unpickled = time.perf_counter()
    copy.merge(result.tally)  # into a full tally: every key collides
    merged = time.perf_counter()
    bench.record("run.tally_pickle_mb", len(blob) / 1e6)
    bench.record("run.tally_pickle_s", pickled - start)
    bench.record("run.tally_unpickle_s", unpickled - pickled)
    bench.record("run.merge_s", merged - unpickled)


def _timestamp(line: str) -> float:
    return float(line.split("\t", 1)[0])


def roundtrip(bench: Bench, graph, seed: int, out: Path) -> dict:
    """bookrank with export, write, interleave the log, ingest it, compare."""
    config = SimConfig(model="bookrank", n_agents=bench.sizes.roundtrip_agents,
                       sessions=bench.sizes.quota, seed=seed, workers=1,
                       export_log=True)
    result, t_sim = bench.call("run.simulate.bookrank", simulate, config,
                               graph=graph)
    sim_dir = out / "sim"
    entries, t_write = _write(bench, result, sim_dir)
    sim_files = check_simulation(bench, result, config, sim_dir)

    # users interleave as in a server log; sort is stable per user
    lines = sorted(result.log_lines, key=_timestamp)
    log_path = out / "requests.log"
    with open(log_path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
    ingest_manifest, t_ingest = bench.call("run.run_ingest", run_ingest,
                                           log_path, out / "ingest")
    sim_manifest = RunManifest(entries, sim_dir / "run_manifest.txt")
    rows, t_compare = bench.call("run.compare_runs", compare_runs,
                                 sim_manifest, ingest_manifest)

    ing = read_outputs(out / "ingest")
    for name in ("n_sessions", "sizes", "depths", "pages", "links", "starts"):
        bench.check(f"roundtrip {name} exact",
                    getattr(ing, name) == getattr(sim_files, name))
    bench.check("roundtrip KS distance 0 on every metric",
                all(row.ks == 0.0 for row in rows),
                str({row.metric: row.ks for row in rows}))

    if bench.traced:
        _ingest_layers(bench, config, graph, t_sim, lines, sim_dir, out / "ingest")
        bench.record("run.compare_s", t_compare)
    return {"wall_s": t_sim + t_write + t_ingest + t_compare,
            "clicks_per_s": result.total_clicks / t_sim,
            "lines_per_s": len(lines) / t_ingest}


def _ingest_layers(bench: Bench, config, graph, t_sim, lines, sim_dir, ing_dir):
    _, t_plain = bench.call("run.simulate.bookrank", simulate,
                            replace(config, export_log=False), graph=graph)
    bench.record("run.export_overhead_s", t_sim - t_plain)

    stats = ParseStats()
    records, t_parse = bench.call("ingest.parse_log", lambda: list(
        parse_log(lines, stats=stats)))
    bench.record("ingest.parse_us_per_line", t_parse / len(lines) * 1e6)
    bench.record("ingest.lines_skipped", stats.skipped)
    _, t_sess = bench.call("ingest.sessionize", lambda: list(sessionize(records)))
    bench.record("ingest.sessionize_us_per_record", t_sess / len(records) * 1e6)

    samples, other = _samples(sim_dir), _samples(ing_dir)
    _, t_fit = bench.call("metrics.fit", lambda: [
        (histogram(values), fit_power_law(values, xmin=1)) for values in samples])
    bench.record("metrics.fit_s", t_fit)
    _, t_ks = bench.call("metrics.ks_statistic", lambda: [
        ks_statistic(a, b) for a, b in zip(samples, other)])
    bench.record("metrics.ks_s", t_ks)


def _samples(out: Path) -> list:
    """The five sample sets behind fits.csv, less values below 1 as there."""
    sets = []
    for name, col in (("page_traffic", "count"), ("link_traffic", "count"),
                      ("empty_referrer_traffic", "count"), ("sessions", "size"),
                      ("sessions", "depth")):
        with open(out / f"{name}.csv", "rt", encoding="utf-8") as fh:
            values = (int(row[col]) for row in csv.DictReader(fh))
            sets.append([v for v in values if v >= 1])
    return sets


ROUNDS = {"desk-serial": desk_serial, "desk-parallel": desk_parallel,
          "roundtrip": roundtrip}


def run_round(bench: Bench, workload: str, graph):
    """One round in its own output directory; None when it failed."""
    index = bench.rounds
    bench.rounds += 1
    bench.round_label = f"{workload}#{index}"
    out = bench.out_root / f"round{index}"
    seed = bench.seed * 1000 + index
    try:
        return ROUNDS[workload](bench, graph, seed, out)
    except RoundFailed:
        return None
    except Exception:
        # a check that cannot even be evaluated is a failed check
        bench.attempted += 1
        bench.failed += 1
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)


def median_of(rounds: list, key: str):
    values = [r[key] for r in rounds if r is not None]
    return median(values) if values else None
