"""Traced-run probes: host calibration and per-step / per-record timings.

The probes call webnav only through public names that stay when the cache
rule and the hot path are rewritten: make_agent, the *_step functions,
SessionRecorder.record and TrafficTally. A probe whose name has gone is
reported as absent (None), not as a failure.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from statistics import median

import webnav.agents
import webnav.session

from workloads import MODELS, tally_total


def burn(iterations: int) -> int:
    """Pure-Python CPU loop; its time is the host's single-core reference."""
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return acc


def host_calibration(iterations: int, workers: int, repeats: int = 3) -> dict:
    """Single-core loop time, and its speed-up when run on `workers` processes."""
    serial = []
    for _ in range(repeats):
        start = time.perf_counter()
        burn(iterations)
        serial.append(time.perf_counter() - start)
    parallel = []
    # fork, as webnav's own pool: a spawn pool would leave its resource
    # tracker process running until this process exits
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        # start every worker before timing
        list(pool.map(burn, [iterations // 10] * workers))
        for _ in range(repeats):
            start = time.perf_counter()
            list(pool.map(burn, [iterations] * workers))
            parallel.append(time.perf_counter() - start)
    ref = median(serial)
    return {"host.ref_loop_s": ref,
            "host.cpu_speedup_2proc": workers * ref / median(parallel)}


def agent_probes(graph, seed: int, agents: int, steps: int) -> dict:
    """agents.{model}.us_per_step and session.{model}.* for every model."""
    make_agent = getattr(webnav.agents, "make_agent", None)
    params_cls = getattr(webnav.agents, "ModelParams", None)
    recorder_cls = getattr(webnav.session, "SessionRecorder", None)
    tally_cls = getattr(webnav.session, "TrafficTally", None)
    out = {"agents.bookrank.mean_bookmarks": None}
    for model in MODELS:
        step = getattr(webnav.agents, f"{model}_step", None)
        out.update({f"agents.{model}.us_per_step": None,
                    f"session.{model}.us_per_record": None,
                    f"session.{model}.tallied_share": None})
        if step is None or make_agent is None or params_cls is None:
            continue
        params = params_cls()
        states = [make_agent(aid, seed, params) for aid in range(agents)]
        outcomes = []
        start = time.perf_counter()
        for state in states:
            outcomes.append([step(state, graph, params) for _ in range(steps)])
        elapsed = time.perf_counter() - start
        out[f"agents.{model}.us_per_step"] = elapsed / (agents * steps) * 1e6
        if model == "bookrank":
            out["agents.bookrank.mean_bookmarks"] = (
                sum(len(s.bookmarks) for s in states) / agents)

        if recorder_cls is None or tally_cls is None:
            continue
        tally = tally_cls()
        start = time.perf_counter()
        for aid, steps_taken in enumerate(outcomes):
            record = recorder_cls(aid, tally).record
            for outcome in steps_taken:
                record(outcome)
        elapsed = time.perf_counter() - start
        out[f"session.{model}.us_per_record"] = elapsed / (agents * steps) * 1e6
        out[f"session.{model}.tallied_share"] = (
            tally_total(tally.page_visits) / (agents * steps))
    return out
