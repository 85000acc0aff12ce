"""The public API: the explicit export list, and the names the benchmark probes."""

import inspect

import webnav
import webnav.agents
import webnav.session

PUBLIC = [
    "ModelParams", "TELEPORT", "FORWARD", "BACK",
    "make_agent", "pagerank_step", "bookrank_step", "abc_step",
    "WebGraph", "generate_scale_free", "load_edge_list", "write_edge_list",
    "SessionDescriptor", "SessionTable", "SessionRecorder", "TrafficTally",
    "entropy_bits",
    "LogRecord", "ParseStats", "parse_log", "Sessionizer", "sessionize",
    "LogBinnedHistogram", "PowerLawFit", "histogram", "ccdf",
    "fit_power_law", "fit_geometric_ratio", "ks_statistic",
    "SimConfig", "RunResult", "RunManifest", "simulate", "run_simulation",
    "run_ingest", "compare_runs", "format_comparison",
    "WebnavError", "ConfigurationError", "DataError", "EmptyDataError",
    "ParseError", "ProtocolError", "StatisticsError",
]


def test_all_is_the_explicit_list():
    assert webnav.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in webnav.__all__:
        obj = getattr(webnav, name)
        assert not inspect.ismodule(obj), name


def test_benchmark_probe_names_exist():
    # benchmarks/probes.py looks these up with getattr and reports "absent"
    # instead of failing, so their presence is pinned here
    for name in ("make_agent", "ModelParams", "pagerank_step",
                 "bookrank_step", "abc_step"):
        assert callable(getattr(webnav.agents, name)), name
    graph = webnav.generate_scale_free(50, 2, 2.1, seed=1)
    params = webnav.agents.ModelParams()
    state = webnav.agents.make_agent(0, 1, params)
    step = webnav.agents.pagerank_step(state, graph, params)
    tally = webnav.session.TrafficTally()
    recorder = webnav.session.SessionRecorder(0, tally)
    recorder.record(step)
    assert tally.page_visits == {step[1]: 1}
