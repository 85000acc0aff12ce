"""Web navigation models, session reconstruction, and traffic analysis.

Three random-surfer models (pagerank, bookrank, abc) browse a shared
scale-free graph; their clicks are folded into logical session trees and
six traffic descriptors (page, link, and empty-referrer traffic, per-user
entropy, session size and depth). The same descriptor pipeline also runs
over sessions reconstructed from HTTP request logs.
"""

__version__ = "0.1.0"

from .agents import (BACK, FORWARD, TELEPORT, ModelParams, abc_step,
                     bookrank_step, make_agent, pagerank_step)
from .errors import (ConfigurationError, DataError, EmptyDataError,
                     ParseError, ProtocolError, StatisticsError, WebnavError)
from .graph import WebGraph, generate_scale_free, load_edge_list, write_edge_list
from .ingest import LogRecord, ParseStats, Sessionizer, parse_log, sessionize
from .metrics import (LogBinnedHistogram, PowerLawFit, ccdf,
                      fit_geometric_ratio, fit_power_law, histogram,
                      ks_statistic)
from .run import (RunManifest, SimConfig, compare_runs, format_comparison,
                  run_ingest, run_simulation, simulate)
from .session import (RunResult, SessionDescriptor, SessionRecorder,
                      SessionTable, TrafficTally, entropy_bits)

__all__ = [
    # models
    "ModelParams", "TELEPORT", "FORWARD", "BACK",
    "make_agent", "pagerank_step", "bookrank_step", "abc_step",
    # graphs
    "WebGraph", "generate_scale_free", "load_edge_list", "write_edge_list",
    # sessions and tallies
    "SessionDescriptor", "SessionTable", "SessionRecorder", "TrafficTally",
    "entropy_bits",
    # log ingest
    "LogRecord", "ParseStats", "parse_log", "Sessionizer", "sessionize",
    # statistics
    "LogBinnedHistogram", "PowerLawFit", "histogram", "ccdf",
    "fit_power_law", "fit_geometric_ratio", "ks_statistic",
    # runs
    "SimConfig", "RunResult", "RunManifest", "simulate", "run_simulation",
    "run_ingest", "compare_runs", "format_comparison",
    # errors
    "WebnavError", "ConfigurationError", "DataError", "EmptyDataError",
    "ParseError", "ProtocolError", "StatisticsError",
]
