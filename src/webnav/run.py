"""Run orchestration: configuration, parallel execution, and file output.

A run is reproducible bit-exactly from (config, seed): agents own RNG
streams derived from (master seed, agent id), workers never share mutable
state, and results are reassembled in agent-id order, so the worker count
cannot influence any output byte.
"""

from __future__ import annotations

import csv
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from multiprocessing import Pool
from pathlib import Path

from . import __version__
from .agents import (STEP_FUNCTIONS, TELEPORT, ModelParams, ZipfRankTable,
                     make_agent)
from .errors import (ConfigurationError, DataError, EmptyDataError,
                     StatisticsError)
from .graph import WebGraph, generate_scale_free, load_edge_list
from .ingest import DEFAULT_TIMEOUT, ParseStats, parse_log, sessionize
from .metrics import (DEFAULT_BIN_RATIO, fit_power_law, histogram,
                      ks_statistic)
from .session import SessionRecorder, TrafficTally, entropy_bits

EXPORT_BASE_TIME = 1_000_000_000  # synthetic epoch for exported logs
EXPORT_LOG_NAME = "requests.log"
MANIFEST_NAME = "run_manifest.txt"

MODELS = tuple(STEP_FUNCTIONS)

# metric name -> (raw samples file, has power-law fit, default fit xmin)
METRIC_FILES = {
    "page_traffic": ("page_traffic.csv", True, 10),
    "link_traffic": ("link_traffic.csv", True, 10),
    "empty_referrer": ("empty_referrer_traffic.csv", True, 1),
    "session_size": ("sessions.csv", True, 1),
    "session_depth": ("sessions.csv", True, 1),
    "entropy": ("entropy.csv", False, None),
}


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
        return self

    def quotas(self) -> list[int]:
        """Per-agent session quotas, index = agent id."""
        if self.sessions_file is None:
            return [self.sessions] * self.n_agents
        quotas = []
        with open(self.sessions_file, "rt", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    q = int(line)
                except ValueError:
                    raise ConfigurationError(
                        f"{self.sessions_file}:{line_no}: bad session count {line!r}") from None
                if q < 1:
                    raise ConfigurationError(
                        f"{self.sessions_file}:{line_no}: session count must be >= 1")
                quotas.append(q)
        if len(quotas) != self.n_agents:
            raise ConfigurationError(
                f"{self.sessions_file} lists {len(quotas)} quotas for {self.n_agents} agents")
        return quotas


_CONFIG_KEYS = {
    "model": ("model", str),
    "n": ("graph_n", int),
    "m": ("graph_m", int),
    "gamma": ("graph_gamma", float),
    "graph": ("graph_path", str),
    "symmetrize": ("symmetrize", None),
    "agents": ("n_agents", int),
    "sessions": ("sessions", int),
    "sessions_file": ("sessions_file", str),
    "seed": ("seed", int),
    "workers": ("workers", int),
    "out": ("out_dir", str),
    "export_log": ("export_log", None),
    "pt": ("p_t", float),
    "beta": ("beta", float),
    "pb": ("p_b", float),
    "e0": ("e0", float),
    "cf": ("c_f", float),
    "cb": ("c_b", float),
    "eta": ("eta", float),
    "delta0": ("delta0", float),
}

_PARAM_FIELDS = tuple(f.name for f in fields(ModelParams))


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {raw!r}")


def parse_config_file(path) -> dict:
    """Read a flat 'key = value' config file into an option dict."""
    options = {}
    with open(path, "rt", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{line_no}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigurationError(f"{path}:{line_no}: unknown key {key!r}")
            options[key] = raw.strip()
    return options


def build_config(options: dict) -> SimConfig:
    """Turn string-valued options (config file and/or CLI) into a SimConfig."""
    config = SimConfig()
    param_values = {}
    for key, raw in options.items():
        if raw is None:
            continue
        try:
            attr, conv = _CONFIG_KEYS[key]
        except KeyError:
            raise ConfigurationError(f"unknown option {key!r}") from None
        if conv is None:
            value = raw if isinstance(raw, bool) else _parse_bool(raw)
        else:
            try:
                value = conv(raw)
            except (TypeError, ValueError):
                raise ConfigurationError(f"bad value for {key}: {raw!r}") from None
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
    """Split agent ids into queues of roughly equal total session count.

    Longest-processing-time greedy: place agents in descending quota order
    onto the currently lightest queue. Guarantees max load <= min load +
    max single quota. Deterministic: ties break by agent id and queue index.
    """
    n_queues = max(1, min(n_queues, len(quotas)))
    queues = [[] for _ in range(n_queues)]
    loads = [0] * n_queues
    for aid in sorted(range(len(quotas)), key=lambda i: (-quotas[i], i)):
        lightest = loads.index(min(loads))
        queues[lightest].append(aid)
        loads[lightest] += quotas[aid]
    return [q for q in queues if q]


@dataclass
class AgentOutput:
    agent_id: int
    descriptors: list
    entropy: float
    n_tallied_visits: int
    log_lines: list | None


@dataclass
class QueueOutput:
    agents: list            # AgentOutput, in queue order
    tally: TrafficTally     # merged across the queue's agents, no user vectors


def _simulate_agent(agent_id: int, quota: int, model: str, graph: WebGraph,
                    params: ModelParams, master_seed: int,
                    zipf: ZipfRankTable, export: bool,
                    tally: TrafficTally) -> AgentOutput:
    state = make_agent(agent_id, master_seed, params, zipf)
    requests = [] if export else None
    recorder = SessionRecorder(agent_id, tally, requests)
    step = STEP_FUNCTIONS[model]
    descriptors = []
    started = 0
    while True:
        outcome = step(state, graph, params)
        if outcome[0] == TELEPORT:
            if started == quota:
                descriptors.append(recorder.close())
                break
            started += 1
        closed = recorder.record(outcome)
        if closed is not None:
            descriptors.append(closed)
    lines = None
    if export:
        lines = [f"{EXPORT_BASE_TIME + i}\t{agent_id}\t{'-' if ref is None else ref}"
                 f"\t{target}\n"
                 for i, (ref, target) in enumerate(requests, start=1)]
    visits = tally.per_user_visits.pop(agent_id)
    return AgentOutput(agent_id=agent_id,
                       descriptors=descriptors,
                       entropy=entropy_bits(visits.values()),
                       n_tallied_visits=sum(visits.values()),
                       log_lines=lines)


def _run_queue(queue: list[tuple[int, int]], model: str, graph: WebGraph,
               params: ModelParams, master_seed: int, export: bool) -> QueueOutput:
    tally = TrafficTally()
    zipf = ZipfRankTable(params.beta)
    agents = [
        _simulate_agent(agent_id, quota, model, graph, params, master_seed,
                        zipf, export, tally)
        for agent_id, quota in queue
    ]
    return QueueOutput(agents=agents, tally=tally)


_POOL_STATE: dict = {}


def _pool_init(model, graph, params, master_seed, export):
    _POOL_STATE.update(model=model, graph=graph, params=params,
                       master_seed=master_seed, export=export)


def _pool_run(queue):
    s = _POOL_STATE
    return _run_queue(queue, s["model"], s["graph"], s["params"],
                      s["master_seed"], s["export"])


@dataclass
class RunResult:
    """In-memory outcome of a simulation run."""

    config: SimConfig
    graph_n: int
    graph_edges: int
    descriptors: list           # sorted by (agent id, session index)
    tally: TrafficTally         # aggregate counts; per-user vectors dropped
    entropies: list             # (agent_id, entropy_bits, tallied visits)
    click_lengths: Counter
    log_lines: list | None
    wall_time: float

    def session_sizes(self):
        return [d.size for d in self.descriptors]

    def session_depths(self):
        return [d.depth for d in self.descriptors]

    @property
    def total_sessions(self) -> int:
        return len(self.descriptors)

    @property
    def total_clicks(self) -> int:
        return sum(l * c for l, c in self.click_lengths.items())

    def mean_session_size(self) -> float:
        return sum(d.size for d in self.descriptors) / len(self.descriptors)

    def mean_session_depth(self) -> float:
        return sum(d.depth for d in self.descriptors) / len(self.descriptors)


def simulate(config: SimConfig, graph: WebGraph | None = None) -> RunResult:
    """Run the configured model; deterministic for any worker count."""
    config.validate()
    started = time.perf_counter()
    if graph is None:
        graph = resolve_graph(config)
    quotas = config.quotas()
    queues = partition_agents(quotas, config.workers)
    work = [[(aid, quotas[aid]) for aid in queue] for queue in queues]

    if config.workers == 1 or len(work) == 1:
        outputs = [_run_queue(q, config.model, graph, config.params,
                              config.seed, config.export_log) for q in work]
    else:
        with Pool(processes=min(config.workers, len(work)),
                  initializer=_pool_init,
                  initargs=(config.model, graph, config.params,
                            config.seed, config.export_log)) as pool:
            outputs = pool.map(_pool_run, work)

    tally = TrafficTally()
    agent_outputs = []
    for out in outputs:
        tally.merge(out.tally)
        agent_outputs.extend(out.agents)
    agent_outputs.sort(key=lambda a: a.agent_id)

    descriptors = []
    entropies = []
    log_lines = [] if config.export_log else None
    for agent in agent_outputs:
        descriptors.extend(agent.descriptors)
        entropies.append((agent.agent_id, agent.entropy, agent.n_tallied_visits))
        if config.export_log:
            log_lines.extend(agent.log_lines)

    return RunResult(config=config, graph_n=graph.n, graph_edges=graph.n_edges,
                     descriptors=descriptors, tally=tally, entropies=entropies,
                     click_lengths=Counter(d.clicks for d in descriptors),
                     log_lines=log_lines,
                     wall_time=time.perf_counter() - started)


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


def _write_counter_csv(path, header, counter, split_key=False):
    items = sorted(counter.items())
    if split_key:
        rows = [(a, b, c) for (a, b), c in items]
    else:
        rows = [(k, c) for k, c in items]
    _write_csv(path, header, rows)


def _write_distribution_csv(path, samples, ratio=DEFAULT_BIN_RATIO):
    positive = [s for s in samples if s >= 1]
    if not positive:
        _write_csv(path, ["bin_lo", "bin_hi", "count", "density"], [])
        return
    hist = histogram(positive, ratio)
    rows = [(_fmt(lo), _fmt(hi), count, _fmt(dens))
            for lo, hi, count, dens in hist.rows()]
    _write_csv(path, ["bin_lo", "bin_hi", "count", "density"], rows)


def _fit_row(metric, samples, xmin):
    positive = [s for s in samples if s >= 1]
    try:
        fit = fit_power_law(positive, xmin)
        return (metric, _fmt(fit.alpha), fit.xmin, fit.n_tail, _fmt(fit.stderr))
    except (StatisticsError, DataError):
        return (metric, "nan", xmin, len(positive), "nan")


def write_outputs(out_dir, descriptors, tally, entropies, click_lengths) -> dict:
    """Write the six descriptor streams, distributions, and fit summaries.

    Returns manifest entries: metric name -> file name plus summary stats.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _write_csv(out / "sessions.csv",
               ["user_id", "session_index", "root", "size", "depth"],
               ([d.user, d.index, d.root, d.size, d.depth] for d in descriptors))
    _write_counter_csv(out / "page_traffic.csv", ["page", "count"],
                       tally.page_visits)
    _write_counter_csv(out / "link_traffic.csv", ["src", "dst", "count"],
                       tally.link_visits, split_key=True)
    _write_counter_csv(out / "empty_referrer_traffic.csv", ["page", "count"],
                       tally.session_starts)
    _write_csv(out / "entropy.csv", ["user_id", "entropy_bits", "tallied_visits"],
               ((user, _fmt(s), visits) for user, s, visits in entropies))
    _write_counter_csv(out / "session_clicks.csv", ["clicks", "count"],
                       click_lengths)

    sizes = [d.size for d in descriptors]
    depths = [d.depth for d in descriptors]
    samples = {
        "page_traffic": list(tally.page_visits.values()),
        "link_traffic": list(tally.link_visits.values()),
        "empty_referrer": list(tally.session_starts.values()),
        "session_size": sizes,
        "session_depth": depths,
    }
    for metric, values in samples.items():
        _write_distribution_csv(out / f"dist_{metric}.csv", values)
    _write_csv(out / "fits.csv", ["metric", "alpha", "xmin", "n_tail", "stderr"],
               (_fit_row(metric, values, METRIC_FILES[metric][2])
                for metric, values in samples.items()))

    entries = {f"file.{m}": METRIC_FILES[m][0] for m in METRIC_FILES}
    entries["file.session_clicks"] = "session_clicks.csv"
    entries["file.fits"] = "fits.csv"
    for metric in samples:
        entries[f"file.dist_{metric}"] = f"dist_{metric}.csv"
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

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def metric_file(self, metric: str) -> Path:
        try:
            return self.out_dir / self.values[f"file.{metric}"]
        except KeyError:
            raise ConfigurationError(
                f"manifest {self.path} lacks metric {metric!r}") from None

    def save(self, path) -> "RunManifest":
        self.path = Path(path)
        with open(path, "wt", encoding="utf-8", newline="\n") as fh:
            for key, value in self.values.items():
                fh.write(f"{key} = {value}\n")
        return self

    @classmethod
    def load(cls, path) -> "RunManifest":
        values = {}
        with open(path, "rt", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or "=" not in line:
                    continue
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
        return cls(values, path)


def _manifest_values(command: str, config_items: dict, result_items: dict,
                     file_entries: dict) -> dict:
    values = {"tool": f"webnav {__version__}", "command": command}
    values.update(config_items)
    values.update(result_items)
    values.update(file_entries)
    return values


def _summary_items(descriptors, tally, entropies, click_lengths) -> dict:
    """Manifest summary shared by simulated and ingested runs."""
    n = len(descriptors)
    mean_entropy = (sum(s for _, s, _ in entropies) / len(entropies)
                    if entropies else math.nan)
    return {
        "total_sessions": n,
        "total_clicks": sum(l * c for l, c in click_lengths.items()),
        "total_page_visits": sum(tally.page_visits.values()),
        "total_link_visits": sum(tally.link_visits.values()),
        "mean_session_size": _fmt(sum(d.size for d in descriptors) / n),
        "mean_session_depth": _fmt(sum(d.depth for d in descriptors) / n),
        "mean_user_entropy": _fmt(mean_entropy),
    }


def run_simulation(config: SimConfig, graph: WebGraph | None = None) -> RunManifest:
    """Simulate, write every output file, and return the saved manifest."""
    result = simulate(config, graph)
    out = Path(config.out_dir)
    entries = write_outputs(out, result.descriptors, result.tally,
                            result.entropies, result.click_lengths)
    if config.export_log:
        with open(out / EXPORT_LOG_NAME, "wt", encoding="utf-8", newline="\n") as fh:
            fh.writelines(result.log_lines)
        entries["file.request_log"] = EXPORT_LOG_NAME

    p = config.params
    config_items = {
        "model": config.model,
        "graph_source": config.graph_path or "generated",
        "graph_n": config.graph_n if config.graph_path is None else result.graph_n,
        "graph_m": config.graph_m,
        "graph_gamma": _fmt(config.graph_gamma),
        "symmetrize": config.symmetrize,
        **{name: _fmt(getattr(p, name)) for name in _PARAM_FIELDS},
        "n_agents": config.n_agents,
        "sessions": ("@" + config.sessions_file if config.sessions_file
                     else config.sessions),
        "seed": config.seed,
        "workers": config.workers,
    }
    result_items = {
        "n_nodes": result.graph_n,
        "n_edges": result.graph_edges,
        **_summary_items(result.descriptors, result.tally, result.entropies,
                         result.click_lengths),
        "wall_time_s": _fmt(result.wall_time),
    }
    manifest = RunManifest(_manifest_values("simulate", config_items,
                                            result_items, entries))
    return manifest.save(out / MANIFEST_NAME)


def run_ingest(log_path, out_dir, timeout: float = DEFAULT_TIMEOUT,
               strip_query: bool = False, page_extensions=None) -> RunManifest:
    """Rebuild sessions from a request log and write the same outputs."""
    started = time.perf_counter()
    stats = ParseStats()
    tally = TrafficTally()
    descriptors = []
    with open(log_path, "rt", encoding="utf-8") as fh:
        records = parse_log(fh, strip_query=strip_query,
                            page_extensions=page_extensions, stats=stats)
        descriptors.extend(sessionize(records, timeout, tally))
    if not descriptors:
        raise EmptyDataError(f"no usable records in {log_path} "
                             f"({stats.skipped} skipped, {stats.filtered} filtered)")

    users = sorted(tally.per_user_visits)
    entropies = [(u, entropy_bits(tally.per_user_visits[u].values()),
                  sum(tally.per_user_visits[u].values())) for u in users]
    click_lengths = Counter(d.clicks for d in descriptors)
    out = Path(out_dir)
    entries = write_outputs(out, descriptors, tally, entropies, click_lengths)

    config_items = {
        "log_path": str(log_path),
        "timeout_s": _fmt(float(timeout)),
        "strip_query": strip_query,
        "page_extensions": (",".join(sorted(page_extensions))
                            if page_extensions else ""),
        "records_parsed": stats.parsed,
        "records_skipped": stats.skipped,
        "records_filtered": stats.filtered,
    }
    result_items = {
        "n_users": len(users),
        **_summary_items(descriptors, tally, entropies, click_lengths),
        "wall_time_s": _fmt(time.perf_counter() - started),
    }
    manifest = RunManifest(_manifest_values("ingest", config_items,
                                            result_items, entries))
    return manifest.save(out / MANIFEST_NAME)


# ---------------------------------------------------------------------------
# run comparison


def _metric_samples(manifest: RunManifest, metric: str):
    path = manifest.metric_file(metric)
    with open(path, "rt", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if metric == "session_size":
            col = header.index("size")
        elif metric == "session_depth":
            col = header.index("depth")
        elif metric == "entropy":
            col = header.index("entropy_bits")
        else:
            col = header.index("count")
        cast = float if metric == "entropy" else int
        return [cast(row[col]) for row in reader]


def _metric_alpha(manifest: RunManifest, metric: str):
    path = manifest.metric_file("fits")
    with open(path, "rt", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["metric"] == metric:
                return float(row["alpha"])
    return math.nan


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
    rows = []
    for metric in METRIC_FILES:
        a = _metric_samples(manifest_a, metric)
        b = _metric_samples(manifest_b, metric)
        if not a or not b:
            raise ConfigurationError(f"metric {metric!r} is empty in one run")
        has_fit = METRIC_FILES[metric][1]
        rows.append(MetricComparison(
            metric=metric,
            mean_a=sum(a) / len(a),
            mean_b=sum(b) / len(b),
            alpha_a=_metric_alpha(manifest_a, metric) if has_fit else math.nan,
            alpha_b=_metric_alpha(manifest_b, metric) if has_fit else math.nan,
            ks=ks_statistic(a, b),
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
