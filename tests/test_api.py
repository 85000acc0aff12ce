"""The public API: the explicit export list, and the names the benchmark probes."""

import inspect

import webnav
import webnav.agents
import webnav.session

PUBLIC = [
    "ModelParams", "StepOutcome", "Teleport", "Forward", "Back",
    "make_agent", "pagerank_step", "bookrank_step", "abc_step",
    "WebGraph", "generate_scale_free", "load_edge_list", "write_edge_list",
    "SessionDescriptor", "SessionRecorder", "TrafficTally", "entropy_bits",
    "LogRecord", "ParseStats", "parse_log", "Sessionizer", "sessionize",
    "descriptors_from_logs",
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
    tally = webnav.session.TrafficTally()
    recorder = webnav.session.SessionRecorder(0, tally)
    recorder.record(webnav.agents.Teleport(3))
    assert tally.page_visits == {3: 1}
