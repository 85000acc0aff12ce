"""Run orchestration: configuration, parallel execution, and file output.

A run is reproducible bit-exactly from (config, seed): agents own RNG
streams derived from (master seed, agent id), workers never share mutable
state, and queues are contiguous runs of agent ids joined in id order,
so the worker count cannot influence any output byte.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import re
import resource
import sys
import time
from array import array
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__, session
from .agents import (STEP_FUNCTIONS, TELEPORT, ModelParams, ZipfRankTable,
                     make_agent)
from .errors import (ConfigurationError, DataError, EmptyDataError, ParseError,
                     StatisticsError, UnboundedSessionError, input_lines, is_decimal,
                     is_plain_float)
from .graph import WebGraph, generate_scale_free, load_edge_list
from .ingest import DEFAULT_TIMEOUT, ParseStats, Sessionizer, parse_log
from .metrics import fit_power_law, histogram, ks_statistic
from .session import (ArrayTally, RunResult, SessionRecorder, SessionTable,
                      TrafficTally, count_clicks, entropy_row)

EXPORT_BASE_TIME = 1_000_000_000  # synthetic epoch for exported logs
EXPORT_LOG_NAME = "requests.log"
MANIFEST_NAME = "run_manifest.txt"

MODELS = tuple(STEP_FUNCTIONS)

# simulate's worker pools: multiprocessing itself, so each Pool takes the
# start method in force when simulate runs, which a test may replace with
# a context. Workers read nothing from the parent but their arguments, so
# every start method gives the same result.
_POOL_CONTEXT = multiprocessing

# metric name -> (raw samples file, sample column, power-law fit xmin or None)
METRIC_FILES = {
    "page_traffic": ("page_traffic.csv", "count", 10),
    "link_traffic": ("link_traffic.csv", "count", 10),
    "empty_referrer": ("empty_referrer_traffic.csv", "count", 1),
    "session_size": ("sessions.csv", "size", 1),
    "session_depth": ("sessions.csv", "depth", 1),
    "entropy": ("entropy.csv", "entropy_bits", None),
}


def _int(raw) -> int:
    if not is_decimal(str(raw).removeprefix("-")):
        raise ValueError(raw)
    return int(raw)


def _float(raw) -> float:
    if not is_plain_float(str(raw)):
        raise ValueError(raw)
    return float(raw)


def convert_option(key: str, conv, raw):
    """conv(raw), or ConfigurationError naming the option."""
    try:
        return conv(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(f"bad value for {key}: {raw!r}") from None


@dataclass
class SimConfig:
    """Resolved simulation configuration."""

    model: str = "abc"
    graph_n: int = 100_000
    graph_m: int = 3
    graph_gamma: float = 2.1
    graph_path: str | None = None   # when set, load instead of generate
    symmetrize: bool = False
    params: ModelParams = field(default_factory=ModelParams)
    n_agents: int = 1000
    sessions: int = 1000            # per-agent quota ...
    sessions_file: str | None = None  # ... unless an explicit quota file is given
    seed: int = 1
    workers: int = 1
    out_dir: str = "webnav_out"
    export_log: bool = False

    def validate(self) -> "SimConfig":
        if self.model not in MODELS:
            raise ConfigurationError(
                f"unknown model {self.model!r}; choose from {', '.join(MODELS)}")
        if self.n_agents < 1:
            raise ConfigurationError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.sessions_file is None and self.sessions < 1:
            raise ConfigurationError(f"sessions must be >= 1, got {self.sessions}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        self.params.validate()
        cap = session.MAX_SESSION_CLICKS
        if self.params.p_t * cap <= 1 and self.model in ("pagerank", "bookrank"):
            raise ConfigurationError(
                f"model {self.model} needs p_t > 1/{cap}: its sessions end only at "
                f"a teleport, after 1/p_t clicks on average")
        return self

    def quotas(self) -> list[int]:
        """Per-agent session quotas, index = agent id."""
        if self.sessions_file is None:
            return [self.sessions] * self.n_agents
        quotas = []
        for n, line in input_lines(self.sessions_file, ConfigurationError):
            try:
                q = _int(line)
            except ValueError:
                raise ConfigurationError(
                    f"{self.sessions_file}:{n}: bad session count {line!r}") from None
            if q < 1:
                raise ConfigurationError(
                    f"{self.sessions_file}:{n}: session count must be >= 1")
            quotas.append(q)
        if len(quotas) != self.n_agents:
            raise ConfigurationError(
                f"{self.sessions_file} lists {len(quotas)} quotas for {self.n_agents} agents")
        return quotas


# The simulate options, in --help order: config-file key -> (SimConfig or
# ModelParams attribute, converter or None for a boolean, help). The CLI
# flag is the key with "-" for "_".
_CONFIG_KEYS = {
    "model": ("model", str, f"navigation model: {', '.join(MODELS)}"),
    "n": ("graph_n", _int, "nodes in the generated graph"),
    "m": ("graph_m", _int, "links added per new node"),
    "gamma": ("graph_gamma", _float, "target degree exponent"),
    "graph": ("graph_path", str, "edge-list file instead of generating"),
    "symmetrize": ("symmetrize", None, "insert reverse edges when loading --graph"),
    "pt": ("p_t", _float, "teleport probability"),
    "beta": ("beta", _float, "bookmark rank exponent"),
    "pb": ("p_b", _float, "back-button probability"),
    "e0": ("e0", _float, "session-start energy"),
    "cf": ("c_f", _float, "forward click cost"),
    "cb": ("c_b", _float, "back click cost"),
    "eta": ("eta", _float, "topical locality half-width"),
    "delta0": ("delta0", _float, "session-root relevance"),
    "agents": ("n_agents", _int, "number of agents"),
    "sessions": ("sessions", _int, "sessions per agent"),
    "sessions_file": ("sessions_file", str,
                      "file with one per-agent session quota per line"),
    "seed": ("seed", _int, "master RNG seed"),
    "workers": ("workers", _int, "worker process count"),
    "out": ("out_dir", str, "output directory"),
    "export_log": ("export_log", None, "write the clicks as a synthetic request log"),
}

_PARAM_FIELDS = tuple(f.name for f in fields(ModelParams))


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {raw!r}")


def _key_values(path):
    """(line number, key, value) of each line of a flat 'key = value' file.

    Lines starting with '#' are comments. Raises ConfigurationError
    naming the file and line for a line without '='.
    """
    for n, line in input_lines(path, ConfigurationError):
        if line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigurationError(f"{path}:{n}: expected 'key = value'")
        yield n, key.strip(), value.strip()


def parse_config_file(path) -> dict:
    """Read a flat 'key = value' config file into an option dict."""
    options = {}
    for n, key, value in _key_values(path):
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{n}: unknown key {key!r}")
        options[key] = value
    return options


def build_config(options: dict) -> SimConfig:
    """Turn string-valued options (config file and/or CLI) into a SimConfig."""
    config = SimConfig()
    param_values = {}
    for key, raw in options.items():
        if raw is None:
            continue
        try:
            attr, conv, _ = _CONFIG_KEYS[key]
        except KeyError:
            raise ConfigurationError(f"unknown option {key!r}") from None
        if conv is None:
            value = raw if isinstance(raw, bool) else _parse_bool(raw)
        else:
            value = convert_option(key, conv, raw)
        if attr in _PARAM_FIELDS:
            param_values[attr] = value
        else:
            setattr(config, attr, value)
    if param_values:
        config.params = replace(config.params, **param_values)
    return config.validate()


def resolve_graph(config: SimConfig) -> WebGraph:
    if config.graph_path is not None:
        return load_edge_list(config.graph_path, symmetrize=config.symmetrize)
    return generate_scale_free(config.graph_n, config.graph_m,
                               config.graph_gamma, seed=config.seed)


def partition_agents(quotas: list[int], n_queues: int) -> list[list[int]]:
    """Split agent ids into at most n_queues contiguous runs, in id order.

    With n = min(n_queues, agents), an agent joins run n * q // total, q
    the sum of the quotas before it, so no run's load reaches total/n +
    the largest quota, and equal quotas give run lengths that differ by at
    most 1. Empty runs are dropped.
    """
    n_queues = max(1, min(n_queues, len(quotas)))
    total = sum(quotas)
    queues = [[] for _ in range(n_queues)]
    before = 0
    for aid, quota in enumerate(quotas):
        queues[before * n_queues // total].append(aid)
        before += quota
    return [q for q in queues if q]


@dataclass
class QueueOutput:
    sessions: list          # one SessionTable per agent, in agent-id order
    entropies: list         # entropy_row per agent, in agent-id order
    log_lines: list | None  # the agents' request lines, in agent-id order
    tally: ArrayTally       # the queue's counts
    compute_s: float        # the queue's compute time
    end: float              # perf_counter() at its end: system-wide on Linux


def _simulate_agent(agent_id: int, quota: int, model: str, graph: WebGraph,
                    params: ModelParams, master_seed: int,
                    zipf: ZipfRankTable, tally: TrafficTally,
                    max_clicks: int) -> SessionTable:
    state = make_agent(agent_id, master_seed, params, zipf)
    recorder = SessionRecorder(agent_id, tally, max_clicks)
    step = STEP_FUNCTIONS[model]
    record = recorder.record
    descriptors = []
    keep = descriptors.append
    started = 0
    while True:
        outcome = step(state, graph, params)
        if outcome[0] == TELEPORT:
            if started == quota:
                keep(recorder.close())
                break
            started += 1
        try:
            closed = record(outcome)
        except UnboundedSessionError as exc:
            raise UnboundedSessionError(f"{exc}: model {model}, {params}") from None
        if closed is not None:
            keep(closed)
    # int64 columns pickle as buffers, not as a tuple per session
    return SessionTable.from_rows(descriptors)


def _run_queue(queue: list[tuple[int, int]], model: str, graph: WebGraph,
               params: ModelParams, master_seed: int, export: bool,
               max_clicks: int) -> QueueOutput:
    start = time.perf_counter()
    tallies = [TrafficTally() for _ in queue]  # one per agent
    zipf = ZipfRankTable(params.beta)
    sessions = [_simulate_agent(agent_id, quota, model, graph, params,
                                master_seed, zipf, tally, max_clicks)
                for (agent_id, quota), tally in zip(queue, tallies)]
    entropies = [entropy_row(agent_id, tally)
                 for (agent_id, _), tally in zip(queue, tallies)]
    lines = ([f"{EXPORT_BASE_TIME + i}\t{agent_id}\t{'-' if ref is None else ref}"
              f"\t{target}\n"
              for (agent_id, _), tally in zip(queue, tallies)
              for i, (ref, target) in enumerate(zip(tally.ref, tally.dst), start=1)]
             if export else None)
    # the queue's requests, counted once: arrays pickle and merge fast
    shipped = ArrayTally.of(*tallies)
    end = time.perf_counter()
    return QueueOutput(sessions, entropies, lines, shipped, end - start, end)


def _pool_init(run_queue):
    global _RUN_QUEUE  # the worker's _run_queue, the run's arguments bound
    _RUN_QUEUE = run_queue


def _pool_run(queue):
    return _RUN_QUEUE(queue)


def simulate(config: SimConfig, graph: WebGraph | None = None) -> RunResult:
    """Run the configured model; deterministic for any worker count.

    Each worker's queue is one of partition_agents' contiguous runs of
    agent ids, under total/workers + the largest quota sessions, so the
    queues' results joined in queue order are in agent-id order. The
    result's times hold time.queue_compute_s, the slowest queue's
    compute time, time.queue_tail_s, from the last queue's end to the
    merged result (transfer and merge), and time.merge_s, the part of
    it spent merging the queues' tallies. session.MAX_SESSION_CLICKS is
    read here, once, and bound with the run's other arguments, so a
    worker under any start method sees the parent's cap.
    """
    config.validate()
    if graph is None:
        graph = resolve_graph(config)
    quotas = config.quotas()
    queues = [[(aid, quotas[aid]) for aid in run]
              for run in partition_agents(quotas, config.workers)]
    run_queue = partial(_run_queue, model=config.model, graph=graph,
                        params=config.params, master_seed=config.seed,
                        export=config.export_log,
                        max_clicks=session.MAX_SESSION_CLICKS)
    if len(queues) == 1:
        outputs = [run_queue(queues[0])]
    else:
        # a forked worker inherits run_queue and its graph unpickled; a
        # spawned one unpickles them from initargs
        with _POOL_CONTEXT.Pool(len(queues), initializer=_pool_init,
                                initargs=(run_queue,)) as pool:
            outputs = pool.map(_pool_run, queues)

    tally = outputs[0].tally
    merge_s = 0.0
    for out in outputs[1:]:
        start = time.perf_counter()
        tally.merge(out.tally)  # leaves out.tally empty
        merge_s += time.perf_counter() - start
    sessions = SessionTable(*map(np.concatenate, zip(
        *(table.columns for out in outputs for table in out.sessions))))
    entropies = [row for out in outputs for row in out.entropies]
    log_lines = ([line for out in outputs for line in out.log_lines]
                 if config.export_log else None)
    times = {"time.queue_compute_s": max(out.compute_s for out in outputs),
             "time.queue_tail_s": (time.perf_counter()
                                   - max(out.end for out in outputs)),
             "time.merge_s": merge_s}
    return RunResult(sessions, tally, entropies, log_lines, times=times)


# ---------------------------------------------------------------------------
# output files


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# rows per %-format call when writing integer columns: bounds the
# transient string and tuple
_WRITE_CHUNK = 1 << 15


def _write_columns_csv(path, header, columns, names=None, ids=()):
    """One row per position of the int64 columns, which share one length.

    Without names, each chunk of rows is written by one %-format, which
    gives the bytes csv.writer would. With names, an ingested log's
    vocabulary, the columns at the positions ids hold codes into it, and
    the rows go through csv.writer, which quotes, each code read as
    names[code] as its row is written: no column is mapped whole.
    """
    with open(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if names is not None:
            # a memoryview yields its values as ints, one at a time
            writer.writerows(zip(*(
                map(names.__getitem__, memoryview(column)) if at in ids
                else memoryview(column) for at, column in enumerate(columns))))
            return
        line = ",".join(["%d"] * len(columns)) + "\n"
        for lo in range(0, columns[0].size, _WRITE_CHUNK):
            part = np.column_stack([c[lo:lo + _WRITE_CHUNK] for c in columns])
            fh.write(line * len(part) % tuple(part.ravel().tolist()))


def _write_distribution_csv(path, samples: np.ndarray):
    positive = samples[samples >= 1]
    if not positive.size:
        _write_csv(path, ["bin_lo", "bin_hi", "count", "density"], [])
        return
    hist = histogram(positive)
    rows = [(_fmt(lo), _fmt(hi), count, _fmt(dens))
            for lo, hi, count, dens in hist.rows()]
    _write_csv(path, ["bin_lo", "bin_hi", "count", "density"], rows)


def _fit_row(metric, samples: np.ndarray, xmin):
    positive = samples[samples >= 1]
    try:
        fit = fit_power_law(positive, xmin)
        return (metric, _fmt(fit.alpha), fit.xmin, fit.n_tail, _fmt(fit.stderr))
    except (StatisticsError, DataError):
        return (metric, "nan", xmin, positive.size, "nan")


def write_outputs(out_dir, sessions: SessionTable, tally: ArrayTally,
                  entropies, click_lengths, names=None) -> dict:
    """Write the six descriptor streams, distributions, and fit summaries.

    session_clicks.csv is counted from sessions.clicks; click_lengths, a
    {clicks: sessions} dict as RunResult.click_lengths gives, must agree
    with it. names is RunResult.names: None for a simulation, whose ids
    are written as they are, or an ingested log's vocabulary, through
    which the id columns (users, roots, pages) are written as the log's
    strings. Returns manifest entries: metric name -> file name, and
    time.fits_s, the seconds spent fitting.

    Raises:
        DataError: click_lengths disagrees with sessions.clicks; no file
            is written.
    """
    lengths = count_clicks(sessions.clicks)
    if click_lengths != lengths:
        raise DataError("click_lengths disagree with the sessions' clicks column")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pages, links, starts = tally.columns()
    _write_columns_csv(out / "sessions.csv",
                       ["user_id", "session_index", "root", "size", "depth"],
                       (sessions.user, sessions.index, sessions.root,
                        sessions.size, sessions.depth), names, (0, 2))
    _write_columns_csv(out / "page_traffic.csv", ["page", "count"],
                       (*pages[0], pages[1]), names, (0,))
    _write_columns_csv(out / "link_traffic.csv", ["src", "dst", "count"],
                       (*links[0], links[1]), names, (0, 1))
    _write_columns_csv(out / "empty_referrer_traffic.csv", ["page", "count"],
                       (*starts[0], starts[1]), names, (0,))
    _write_csv(out / "entropy.csv", ["user_id", "entropy_bits", "tallied_visits"],
               ((user, _fmt(s), visits) for user, s, visits in entropies))
    _write_csv(out / "session_clicks.csv", ["clicks", "count"], lengths.items())

    samples = {
        "page_traffic": pages[1],
        "link_traffic": links[1],
        "empty_referrer": starts[1],
        "session_size": sessions.size,
        "session_depth": sessions.depth,
    }
    for metric, values in samples.items():
        _write_distribution_csv(out / f"dist_{metric}.csv", values)
    fits_start = time.perf_counter()
    fits = [_fit_row(metric, values, METRIC_FILES[metric][2])
            for metric, values in samples.items()]
    fits_s = time.perf_counter() - fits_start
    _write_csv(out / "fits.csv", ["metric", "alpha", "xmin", "n_tail", "stderr"], fits)

    entries = {f"file.{m}": METRIC_FILES[m][0] for m in METRIC_FILES}
    entries["file.session_clicks"] = "session_clicks.csv"
    entries["file.fits"] = "fits.csv"
    for metric in samples:
        entries[f"file.dist_{metric}"] = f"dist_{metric}.csv"
    entries["time.fits_s"] = fits_s
    return entries


class RunManifest:
    """Flat key-value record of a run, sufficient to reproduce it."""

    def __init__(self, values: dict, path=None):
        self.values = {str(k): str(v) for k, v in values.items()}
        self.path = Path(path) if path is not None else None

    @property
    def out_dir(self) -> Path:
        return self.path.parent

    def __getitem__(self, key: str) -> str:
        return self.values[key]

    def metric_file(self, metric: str) -> Path:
        try:
            return self.out_dir / self.values[f"file.{metric}"]
        except KeyError:
            raise ConfigurationError(
                f"manifest {self.path} lacks metric {metric!r}") from None

    def save(self, path) -> "RunManifest":
        r"""Write one 'key = value' line per item, the values escaped.

        A backslash, newline or carriage return in a value is written as
        \\, \n or \r; a surrogate (what a byte of a path that is not
        UTF-8 decodes to), and whitespace at either end, which load would
        strip, as \uXXXX. So the file is UTF-8 with one line per item,
        and load() gives back every value. Other values are written as
        they are.
        """
        self.path = Path(path)
        with open(path, "wt", encoding="utf-8", newline="\n") as fh:
            for key, value in self.values.items():
                fh.write(f"{key} = {_ESCAPED.sub(_escape, value)}\n")
        return self

    @classmethod
    def load(cls, path) -> "RunManifest":
        return cls({key: _ESCAPE_SEQUENCE.sub(_unescape, value)
                    for _, key, value in _key_values(path)}, path)


# what RunManifest.save escapes, and the escape sequences load reads back
_ESCAPED = re.compile(r"[\\\n\r\ud800-\udfff]|\A\s|\s\Z")
_ESCAPE_SEQUENCE = re.compile(r"\\(\\|n|r|u[0-9a-f]{4})")
_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", "n": "\n", "r": "\r"}


def _escape(match) -> str:
    char = match.group()
    return _ESCAPES.get(char) or f"\\u{ord(char):04x}"


def _unescape(match) -> str:
    sequence = match.group(1)
    return _UNESCAPES.get(sequence) or chr(int(sequence[1:], 16))


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """High-water resident set so far of this process, or of its largest child."""
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return resource.getrusage(who).ru_maxrss / unit


def _write_run(out_dir, command: str, items: dict, result: RunResult,
               started: float, stage_times: dict, later: dict) -> RunManifest:
    """Write a run's output files and save its manifest.

    The manifest holds the command, the caller's items, the result's
    summary, the wall time since started, the caller's stage_times
    (time.<stage>_s), time.fits_s, time.write_s (fits included), the
    caller's later timings, rates and peak RSS after each stage, the
    peak RSS, then the names of the files.
    """
    out = Path(out_dir)
    write_start = time.perf_counter()
    entries = write_outputs(out, result.descriptors, result.tally,
                            result.entropies, result.click_lengths, result.names)
    if result.log_lines is not None:
        with open(out / EXPORT_LOG_NAME, "wt", encoding="utf-8", newline="\n") as fh:
            fh.writelines(result.log_lines)
        entries["file.request_log"] = EXPORT_LOG_NAME
    measured = {**stage_times, "time.fits_s": entries.pop("time.fits_s"),
                "time.write_s": time.perf_counter() - write_start,
                **later, "peak_rss_mb": _peak_rss_mb(),
                "peak_rss_mb.children": _peak_rss_mb(resource.RUSAGE_CHILDREN)}
    values = {"tool": f"webnav {__version__}", "command": command, **items}
    values.update((key, _fmt(v)) for key, v in result.summary().items())
    values["wall_time_s"] = _fmt(time.perf_counter() - started)
    values.update((key, _fmt(v)) for key, v in measured.items())
    values.update(entries)
    return RunManifest(values).save(out / MANIFEST_NAME)


def run_simulation(config: SimConfig, graph: WebGraph | None = None) -> RunManifest:
    """Simulate, write every output file, and return the saved manifest."""
    started = time.perf_counter()
    config.validate()
    if graph is None:
        graph = resolve_graph(config)
    graph_rss = _peak_rss_mb()
    sim_start = time.perf_counter()
    result = simulate(config, graph)
    simulate_s = time.perf_counter() - sim_start
    stage_times = {"time.simulate_s": simulate_s}
    # near 0 when the caller passed the graph in
    later = {"time.graph_s": sim_start - started, **result.times,
             "clicks_per_s": result.total_clicks / simulate_s,
             "peak_rss_mb.graph": graph_rss,
             "peak_rss_mb.simulate": _peak_rss_mb()}
    p = config.params
    items = {
        "model": config.model,
        "graph_source": config.graph_path or "generated",
        "graph_n": config.graph_n if config.graph_path is None else graph.n,
        "graph_m": config.graph_m,
        "graph_gamma": _fmt(config.graph_gamma),
        "symmetrize": config.symmetrize,
        **{name: _fmt(getattr(p, name)) for name in _PARAM_FIELDS},
        "n_agents": config.n_agents,
        "sessions": ("@" + config.sessions_file if config.sessions_file
                     else config.sessions),
        "seed": config.seed,
        "workers": config.workers,
        "n_nodes": graph.n,
        "n_edges": graph.n_edges,
    }
    return _write_run(config.out_dir, "simulate", items, result, started,
                      stage_times, later)


def run_ingest(log_path, out_dir, timeout: float = DEFAULT_TIMEOUT,
               strip_query: bool = False, page_extensions=None) -> RunManifest:
    """Rebuild sessions from a request log and write the same outputs."""
    started = time.perf_counter()
    stats = ParseStats()
    sessionizer = Sessionizer(timeout)
    # bytes that are not UTF-8 reach parse_log as lone surrogates: it
    # counts such a line as records_skipped.not_utf8
    with open(log_path, "rt", encoding="utf-8", errors="surrogateescape") as fh:
        result = sessionizer.run(parse_log(fh, strip_query=strip_query,
                                           page_extensions=page_extensions,
                                           stats=stats))
    # parse_log is a generator that run() drains: one block covers both
    sessionize_s = time.perf_counter() - started
    stage_times = {"time.sessionize_s": sessionize_s}
    if not result.descriptors:
        raise EmptyDataError(f"no usable records in {log_path} "
                             f"({stats.skipped} skipped, {stats.filtered} filtered)")
    items = {
        "log_path": str(log_path),
        "timeout_s": _fmt(float(timeout)),
        "strip_query": strip_query,
        "page_extensions": (",".join(sorted(page_extensions))
                            if page_extensions else ""),
        "records_parsed": stats.parsed,
        "records_skipped": stats.skipped,
        **{f"records_skipped.{reason}": n
           for reason, n in stats.skipped_by_reason.items()},
        "records_out_of_order": sessionizer.out_of_order,
        "records_filtered": stats.filtered,
        "n_users": len(result.entropies),
        "live_sessions_peak": sessionizer.live_sessions_peak,
    }
    lines = stats.parsed + stats.skipped + stats.filtered  # non-empty lines
    return _write_run(out_dir, "ingest", items, result, started, stage_times,
                      {"lines_per_s": lines / sessionize_s,
                       "peak_rss_mb.sessionize": _peak_rss_mb()})


# ---------------------------------------------------------------------------
# run comparison


def _read_metric_file(path, columns: list, key: str | None = None) -> list:
    """Number columns of a CSV file that write_outputs wrote, in one pass.

    Returns one float64 array (array('d')) per name in columns, of that
    column's values, or with key, one dict per name from the key column's
    values to them.

    Raises:
        ParseError: naming the file and line: a header without the
            columns, a row without a number in a column, or bytes that
            are not UTF-8.
    """
    names = list(columns) if key is None else [key, *columns]
    try:
        with open(path, "rt", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            for name in names:
                if name not in header:
                    raise ParseError(f"{path}:1: no column {name!r} in the header")
            values = [[] if name == key else array("d") for name in names]
            reads = [(name, header.index(name), kept.append, str if name == key else float)
                     for name, kept in zip(names, values)]
            try:
                if len(reads) == 1:  # extend reads one column faster
                    name, at, _, convert = reads[0]
                    values[0].extend(convert(row[at]) for row in reader)
                else:
                    for row in reader:
                        for name, at, keep, convert in reads:
                            keep(convert(row[at]))
            except (ValueError, IndexError, csv.Error):
                raise ParseError(f"{path}:{reader.line_num}: "
                                 f"no number in column {name!r}") from None
    except UnicodeDecodeError:
        for _ in input_lines(path, ParseError):  # raises, naming the line
            pass
        raise
    if key is None:
        return values
    keys, *values = values
    return [dict(zip(keys, kept)) for kept in values]


def _metric_samples(manifest: RunManifest, metrics) -> list:
    """Each metric's samples in one run; a file metrics share is read once."""
    files = {}  # path -> the metrics read from it
    for metric in metrics:
        files.setdefault(manifest.metric_file(metric), []).append(metric)
    samples = {}
    for path, shared in files.items():
        columns = [METRIC_FILES[metric][1] for metric in shared]
        samples.update(zip(shared, _read_metric_file(path, columns)))
    return [samples[metric] for metric in metrics]


@dataclass
class MetricComparison:
    metric: str
    mean_a: float
    mean_b: float
    alpha_a: float
    alpha_b: float
    ks: float


def compare_runs(manifest_a: RunManifest, manifest_b: RunManifest) -> list[MetricComparison]:
    """Per-metric comparison of two runs: means, fitted exponents, KS distance."""
    runs = (manifest_a, manifest_b)
    (alpha_a,), (alpha_b,) = (_read_metric_file(m.metric_file("fits"), ["alpha"],
                                                key="metric") for m in runs)
    rows = []
    # the metrics of one file in turn: a file's columns are held only
    # until its metrics are compared
    for _, group in groupby(METRIC_FILES, key=lambda metric: METRIC_FILES[metric][0]):
        metrics = list(group)
        for metric, a, b in zip(metrics, *(_metric_samples(m, metrics) for m in runs)):
            if not a or not b:
                raise ConfigurationError(f"metric {metric!r} is empty in one run")
            rows.append(MetricComparison(
                metric=metric,
                mean_a=sum(a) / len(a),
                mean_b=sum(b) / len(b),
                # fits.csv has a row for each metric with a fit xmin
                alpha_a=alpha_a.get(metric, math.nan),
                alpha_b=alpha_b.get(metric, math.nan),
                ks=ks_statistic(np.frombuffer(a), np.frombuffer(b)),
            ))
    return rows


def format_comparison(rows: list[MetricComparison], label_a: str, label_b: str) -> str:
    head = (f"{'metric':<16} {'mean A':>12} {'mean B':>12} "
            f"{'alpha A':>9} {'alpha B':>9} {'KS':>8}")
    lines = [f"A = {label_a}", f"B = {label_b}", head, "-" * len(head)]
    for r in rows:
        lines.append(f"{r.metric:<16} {r.mean_a:>12.4f} {r.mean_b:>12.4f} "
                     f"{r.alpha_a:>9.4f} {r.alpha_b:>9.4f} {r.ks:>8.5f}")
    return "\n".join(lines)
