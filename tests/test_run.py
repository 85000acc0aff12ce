import argparse
import csv
import filecmp
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tallies import id_key, tally_of
from webnav import run as run_module
from webnav import session as session_module
from webnav import (ModelParams, RunManifest, SimConfig, TrafficTally,
                    compare_runs, format_comparison, generate_scale_free, run_ingest,
                    run_simulation, simulate)
from webnav import cli
from webnav.cli import main
from webnav.errors import ConfigurationError, DataError, UnboundedSessionError
from webnav.agents import STEP_FUNCTIONS, TELEPORT, ZipfRankTable, make_agent
from webnav.run import (_CONFIG_KEYS, _PARAM_FIELDS, _WRITE_CHUNK, _run_queue,
                        _write_columns_csv, build_config, parse_config_file,
                        partition_agents, write_outputs)
from webnav.session import (ArrayTally, SessionDescriptor, SessionRecorder,
                            SessionTable)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# one value per simulate option, each unlike its default
OPTION_VALUES = {
    "model": "bookrank", "n": "700", "m": "2", "gamma": "2.5",
    "graph": "edges.txt", "symmetrize": "true", "pt": "0.3", "beta": "1.5",
    "pb": "0.25", "e0": "0.75", "cf": "0.5", "cb": "0.25", "eta": "0.05",
    "delta0": "0.5", "agents": "3", "sessions": "4",
    "sessions_file": "quotas.txt", "seed": "5", "workers": "2",
    "out": "elsewhere", "export_log": "true",
}


@pytest.fixture(scope="module")
def graph():
    return generate_scale_free(1500, 3, 2.1, seed=8)


class TestConfig:
    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# settings\nmodel = bookrank\nn = 5000\npt = 0.2\nworkers = 2\n")
        config = build_config(parse_config_file(path))
        assert config.model == "bookrank"
        assert config.graph_n == 5000
        assert config.params.p_t == 0.2
        assert config.workers == 2

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("model = bookrank\nseed = 3\n")
        options = parse_config_file(path)
        options.update({"model": "abc", "sessions": "7"})
        config = build_config(options)
        assert config.model == "abc"
        assert config.seed == 3
        assert config.sessions == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("turbo = yes\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(path)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError):
            build_config({"n": "many"})

    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(model="teleport-only").validate()

    def test_param_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            SimConfig(params=ModelParams(p_t=2.0)).validate()

    def test_sessions_file_quotas(self, tmp_path):
        qf = tmp_path / "quotas.txt"
        qf.write_text("3\n1\n2\n")
        config = SimConfig(n_agents=3, sessions_file=str(qf))
        assert config.quotas() == [3, 1, 2]

    def test_pt_zero_needs_a_model_whose_sessions_end_otherwise(self, monkeypatch):
        for model in ("pagerank", "bookrank"):
            for p_t in (0.0, 1e-12):
                with pytest.raises(ConfigurationError, match=f"model {model}"):
                    SimConfig(model=model, params=ModelParams(p_t=p_t)).validate()
        SimConfig(model="abc", params=ModelParams(p_t=0.0)).validate()
        # the bound reads the click cap when validate runs
        SimConfig(model="pagerank", params=ModelParams(p_t=0.1)).validate()
        monkeypatch.setattr(session_module, "MAX_SESSION_CLICKS", 10)
        with pytest.raises(ConfigurationError, match="model pagerank needs p_t > 1/10"):
            SimConfig(model="pagerank", params=ModelParams(p_t=0.1)).validate()

    def test_sessions_file_count_mismatch(self, tmp_path):
        qf = tmp_path / "quotas.txt"
        qf.write_text("3\n1\n")
        with pytest.raises(ConfigurationError):
            SimConfig(n_agents=3, sessions_file=str(qf)).quotas()


class TestPartition:
    def test_contiguous_runs(self):
        for quotas in ([1, 50, 3, 9, 9, 9, 2, 70, 5, 5, 5, 1], [4] * 10, [7] * 3):
            for n_queues in range(1, 6):
                queues = partition_agents(quotas, n_queues)
                assert sum(queues, []) == list(range(len(quotas)))
                n = min(n_queues, len(quotas))
                assert len(queues) <= n
                for queue in queues:
                    load = sum(quotas[aid] for aid in queue)
                    assert load < sum(quotas) / n + max(quotas)
                if len(set(quotas)) == 1:
                    lengths = [len(queue) for queue in queues]
                    assert len(lengths) == n
                    assert max(lengths) - min(lengths) <= 1

    def test_deterministic(self):
        quotas = [7, 7, 7, 1, 1, 9]
        assert partition_agents(quotas, 3) == partition_agents(quotas, 3)

    def test_more_queues_than_agents(self):
        queues = partition_agents([5, 5], 8)
        assert sorted(sum(queues, [])) == [0, 1]


class TestSimulate:
    def test_pt_one_gives_singleton_sessions(self, graph):
        config = SimConfig(model="pagerank", n_agents=10, sessions=5, seed=4,
                           workers=1, params=ModelParams(p_t=1.0))
        result = simulate(config, graph=graph)
        assert result.total_sessions == 50
        assert all(d.size == 1 for d in result.descriptors)

    def test_skewed_quotas_same_result_at_any_worker_count(self, tmp_path, graph):
        skewed = [1, 50, 3, 9, 9, 9, 2, 70, 5, 5, 5, 1]
        assert len(partition_agents(skewed, 4)) == 3  # one run comes out empty
        quotas = tmp_path / "quotas.txt"
        quotas.write_text("".join(f"{q}\n" for q in skewed))
        results = [simulate(SimConfig(model="bookrank", n_agents=12, seed=9,
                                      sessions_file=str(quotas), workers=workers,
                                      export_log=True), graph=graph)
                   for workers in (1, 2, 3, 4)]
        assert results[0].total_sessions == 169
        assert all(result == results[0] for result in results[1:])

    def test_quota_respected_per_agent(self, graph):
        config = SimConfig(model="abc", n_agents=7, sessions=13, seed=4, workers=1)
        result = simulate(config, graph=graph)
        per_agent = {}
        for d in result.descriptors:
            per_agent[d.user] = per_agent.get(d.user, 0) + 1
        assert per_agent == {aid: 13 for aid in range(7)}

    def test_descriptors_ordered_by_agent_and_index(self, graph):
        config = SimConfig(model="bookrank", n_agents=5, sessions=8, seed=4,
                           workers=2)
        result = simulate(config, graph=graph)
        keys = [(d.user, d.index) for d in result.descriptors]
        assert keys == sorted(keys)

    def test_worker_count_does_not_change_results(self, graph):
        base = None
        for workers in (1, 2, 4):
            config = SimConfig(model="abc", n_agents=12, sessions=20, seed=99,
                               workers=workers)
            result = simulate(config, graph=graph)
            # per-user vectors become entropies in the workers; the
            # tallies ship as count arrays
            assert isinstance(result.tally, ArrayTally)
            snapshot = (result.descriptors, result.tally.page_visits.tolist(),
                        result.tally.link_visits.tolist(),
                        result.entropies, result.click_lengths)
            if base is None:
                base = snapshot
            else:
                assert snapshot == base

    def test_worker_counts_give_equal_results(self, graph):
        one, two = (simulate(SimConfig(model="bookrank", n_agents=6, sessions=15,
                                       seed=8, workers=workers), graph=graph)
                    for workers in (1, 2))
        assert one == two
        two.tally.page_visits[0] += 1
        assert one != two

    @pytest.mark.parametrize("workers", [1, 2])
    def test_session_that_cannot_end_raises(self, graph, monkeypatch, workers):
        # with no click costs an abc session never runs out of energy
        monkeypatch.setattr(session_module, "MAX_SESSION_CLICKS", 2000)
        config = SimConfig(model="abc", n_agents=3, sessions=5, seed=8,
                           workers=workers, params=ModelParams(c_f=0.0, c_b=0.0))
        with pytest.raises(UnboundedSessionError,
                           match=r"agent \d+ session 0 passed 2000 clicks: "
                                 r"model abc, ModelParams\(.*c_f=0\.0, c_b=0\.0"):
            simulate(config, graph=graph)


# a worker that is not forked re-imports webnav: it sees only what
# simulate hands it
@pytest.fixture(params=["spawn", "forkserver"])
def start_method(request, monkeypatch):
    monkeypatch.setattr(run_module, "_POOL_CONTEXT",
                        multiprocessing.get_context(request.param))
    return request.param


class TestStartMethods:
    def test_two_workers_equal_one(self, graph, start_method):
        config = SimConfig(model="bookrank", n_agents=6, sessions=15, seed=8,
                           export_log=True)
        one, two = (simulate(replace(config, workers=workers), graph=graph)
                    for workers in (1, 2))
        assert one == two

    def test_lowered_cap_raises_in_workers(self, graph, monkeypatch, start_method):
        monkeypatch.setattr(session_module, "MAX_SESSION_CLICKS", 2000)
        config = SimConfig(model="abc", n_agents=3, sessions=5, seed=8, workers=2,
                           params=ModelParams(c_f=0.0, c_b=0.0))
        with pytest.raises(UnboundedSessionError,
                           match=r"agent \d+ session 0 passed 2000 clicks: model abc"):
            simulate(config, graph=graph)

    def test_start_method_set_after_import(self):
        # importing webnav fixes no start method: a script may still set
        # spawn, and simulate's pool then spawns its workers
        code = (
            "import multiprocessing, webnav\n"
            "from multiprocessing.context import SpawnProcess\n"
            "multiprocessing.set_start_method('spawn')\n"
            "spawned, popen = [], SpawnProcess._Popen\n"
            "SpawnProcess._Popen = staticmethod(lambda p: spawned.append(p) or popen(p))\n"
            "graph = webnav.generate_scale_free(300, 2, 2.1, seed=8)\n"
            "one, two = (webnav.simulate(webnav.SimConfig(\n"
            "    model='bookrank', n_agents=4, sessions=10, seed=8, workers=w),\n"
            "    graph=graph) for w in (1, 2))\n"
            "print(multiprocessing.get_start_method(), len(spawned), one == two)\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.split() == ["spawn", "2", "True"]


def reference_descriptors(config: SimConfig, graph) -> list:
    """simulate's sessions as a list of descriptors, one agent at a time."""
    zipf = ZipfRankTable(config.params.beta)
    step = STEP_FUNCTIONS[config.model]
    rows = []
    for aid in range(config.n_agents):
        state = make_agent(aid, config.seed, config.params, zipf)
        recorder = SessionRecorder(aid, TrafficTally())
        started = 0
        while True:
            outcome = step(state, graph, config.params)
            if outcome[0] == TELEPORT:
                if started == config.sessions:
                    rows.append(recorder.close())
                    break
                started += 1
            closed = recorder.record(outcome)
            if closed is not None:
                rows.append(closed)
    return rows


class TestSessionTable:
    def test_rows_equal_reference_descriptors(self, graph):
        config = SimConfig(model="bookrank", n_agents=6, sessions=30, seed=12,
                           workers=2)
        table = simulate(config, graph=graph).descriptors
        assert isinstance(table, SessionTable)
        rows = list(table)
        assert rows == reference_descriptors(config, graph)
        assert all(type(d) is SessionDescriptor for d in rows)
        assert all(type(x) is int for x in rows[0])
        assert len(table) == len(rows)

    def test_one_and_two_workers_give_equal_tables(self, graph):
        tables = [simulate(SimConfig(model="pagerank", n_agents=5, sessions=40,
                                     seed=3, workers=w), graph=graph).descriptors
                  for w in (1, 2)]
        assert tables[0] == tables[1]
        assert tables[0].clicks.dtype == tables[1].user.dtype == np.int64

    def test_equality_reads_every_column(self):
        rows = [SessionDescriptor(0, 0, 5, 2, 1, 3),
                SessionDescriptor(0, 1, 7, 1, 0, 1)]
        table = SessionTable.from_rows(rows)
        assert table == SessionTable.from_rows(rows)
        for at in range(len(SessionDescriptor._fields)):
            changed = list(rows[1])
            changed[at] += 1
            other = SessionTable.from_rows([rows[0], SessionDescriptor(*changed)])
            assert table != other, SessionDescriptor._fields[at]
        assert table != SessionTable.from_rows(rows[:1])
        assert table != rows  # a table is not a list, even with equal rows

    def test_integer_ids_give_int64_columns(self):
        rows = [SessionDescriptor(3, 0, 5, 2, 1, 3),
                SessionDescriptor(2**40, 1, 7, 1, 0, 1)]
        table = SessionTable.from_rows(rows)
        assert all(column.dtype == np.int64 for column in table.columns)
        assert table.user.tolist() == [3, 2**40] and table.root.tolist() == [5, 7]
        assert list(table) == rows
        assert len(SessionTable.from_rows([])) == 0
        # a decimal string id is not read as a number
        with pytest.raises(TypeError):
            SessionTable.from_rows([SessionDescriptor("12", 0, 5, 1, 0, 0)])

    def test_pickles_as_columns(self, graph):
        result = simulate(SimConfig(model="abc", n_agents=4, sessions=20, seed=2),
                          graph=graph)
        table = result.descriptors
        assert ForkingPickler.loads(ForkingPickler.dumps(table)) == table

    def test_queue_output_pickles_as_its_buffers(self, graph):
        # a per-session Python object (a descriptor tuple is ~20 B pickled)
        # in the 800 sessions below would overrun the 4 KiB slack
        queue = [(aid, 200) for aid in range(4)]
        out = _run_queue(queue, "pagerank", graph, ModelParams(), 7, False,
                         session_module.MAX_SESSION_CLICKS)
        buffers = (sum(a.nbytes for columns, counts in out.tally.columns()
                       for a in (*columns, counts))
                   + sum(column.nbytes for table in out.sessions
                         for column in table.columns))
        assert sum(len(table) for table in out.sessions) == 800
        assert len(ForkingPickler.dumps(out)) <= buffers + 4096

    def test_click_lengths_read_the_clicks_column(self, graph):
        result = simulate(SimConfig(model="pagerank", n_agents=5, sessions=40,
                                    seed=6), graph=graph)
        expected = Counter(d.clicks for d in result.descriptors)
        lengths = result.click_lengths
        assert type(lengths) is dict
        assert lengths is result.click_lengths  # derived once
        assert lengths == expected
        assert list(lengths) == sorted(expected)
        assert all(type(x) is int for x in (*lengths, *lengths.values()))
        assert result.total_clicks == sum(d.clicks for d in result.descriptors)


def run_to_dir(tmp_path, name, workers, graph, export=False):
    out = tmp_path / name
    config = SimConfig(model="abc", graph_n=graph.n, n_agents=15, sessions=25,
                       seed=31, workers=workers, out_dir=str(out),
                       export_log=export)
    manifest = run_simulation(config, graph=graph)
    return out, manifest


class TestCounterCsv:
    @pytest.mark.parametrize("counter", [
        Counter({3: 2, 1: 5, 10: 5, 2: 1}),
        Counter({(2, 1): 1, (1, 9): 3, (1, 2): 3, (10, 0): 2}),
    ])
    def test_rows_follow_sorted_items(self, tmp_path, counter):
        split_key = isinstance(next(iter(counter)), tuple)
        tally = (tally_of(links=counter.elements()) if split_key
                 else tally_of(counter.elements()))
        pages, links, _ = ArrayTally.of(tally).columns()
        path = tmp_path / "tally.csv"
        keys, counts = links if split_key else pages
        _write_columns_csv(path, ["key", "count"], (*keys, counts))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        # rows in id order
        rows_in_order = sorted(counter.items(), key=lambda item: (
            tuple(map(id_key, item[0])) if split_key else id_key(item[0])))
        expected = [[str(x) for x in (*k, c)] if split_key else [str(k), str(c)]
                    for k, c in rows_in_order]
        assert rows == expected

    @pytest.mark.parametrize("rows", [0, 1, 50])
    def test_coded_columns_match_csv_writer(self, tmp_path, rows):
        # a log's ids, read through its vocabulary as each row is written
        names = ["9", "10", "007", '/a,"b"', "a"]
        rng = np.random.default_rng(rows)
        src = np.sort(rng.integers(0, len(names), rows))
        dst = rng.integers(0, len(names), rows)
        counts = rng.integers(1, 10**9, rows)
        path = tmp_path / "tally.csv"
        _write_columns_csv(path, ["src", "dst", "count"], (src, dst, counts),
                           names, (0, 1))
        expected = tmp_path / "expected.csv"
        with open(expected, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["src", "dst", "count"])
            writer.writerows(zip([names[i] for i in src.tolist()],
                                 [names[i] for i in dst.tolist()], counts.tolist()))
        assert path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("rows", [0, 1, 49, 50])
    def test_integer_columns_match_csv_writer(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(run_module, "_WRITE_CHUNK", 7)  # 49 rows: 7 full chunks
        rng = np.random.default_rng(rows)
        src = np.sort(rng.integers(0, 10**12, rows))
        dst = rng.integers(0, 10**6, rows)
        counts = rng.integers(1, 10**9, rows)
        path = tmp_path / "tally.csv"
        _write_columns_csv(path, ["src", "dst", "count"], (src, dst, counts))
        expected = tmp_path / "expected.csv"
        with open(expected, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["src", "dst", "count"])
            writer.writerows(zip(src.tolist(), dst.tolist(), counts.tolist()))
        assert path.read_bytes() == expected.read_bytes()


class TestSessionsCsv:
    @pytest.mark.parametrize("rows", [1, _WRITE_CHUNK, _WRITE_CHUNK + 1])
    def test_integer_rows_match_csv_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        base = 2**40
        users = np.sort(rng.integers(base - 10**6, base + 10**6, rows))
        columns = (users, np.arange(rows), rng.integers(base - 5, base + 5, rows),
                   rng.integers(1, 10**6, rows), rng.integers(0, 10**5, rows),
                   rng.integers(0, 10**7, rows))
        table = SessionTable(*columns)
        write_outputs(tmp_path / "out", table, ArrayTally.of(TrafficTally()), [],
                      Counter(table.clicks.tolist()))
        expected = tmp_path / "expected.csv"
        with open(expected, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["user_id", "session_index", "root", "size", "depth"])
            writer.writerows(zip(*(column.tolist() for column in columns[:5])))
        assert ((tmp_path / "out" / "sessions.csv").read_bytes()
                == expected.read_bytes())


class TestSessionClicksCsv:
    def one_session(self):
        return SessionTable.from_rows([SessionDescriptor(0, 0, 5, 2, 1, 3)])

    def test_written_from_the_clicks_column(self, tmp_path):
        table = self.one_session()
        write_outputs(tmp_path / "out", table, ArrayTally.of(TrafficTally()), [], {3: 1})
        assert ((tmp_path / "out" / "session_clicks.csv").read_text()
                == "clicks,count\n3,1\n")

    def test_disagreeing_click_lengths_raise_before_writing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(DataError, match="click_lengths disagree"):
            write_outputs(out, self.one_session(), ArrayTally.of(TrafficTally()), [], {7: 2})
        assert not out.exists()


class TestRunSimulation:
    def test_outputs_byte_identical_across_worker_counts(self, tmp_path, graph):
        dir_a, _ = run_to_dir(tmp_path, "w1", 1, graph, export=True)
        dir_b, _ = run_to_dir(tmp_path, "w4", 4, graph, export=True)
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        for name in names:
            if name == "run_manifest.txt":
                continue  # carries wall time
            assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name

    def test_manifest_records_stage_times_and_peak_rss(self, tmp_path, graph):
        out, manifest = run_to_dir(tmp_path, "sim", 2, graph, export=True)
        ingest = run_ingest(out / "requests.log", tmp_path / "ingest")
        for m, stage in ((manifest, "time.simulate_s"), (ingest, "time.sessionize_s")):
            for key in (stage, "time.write_s", "peak_rss_mb", "peak_rss_mb.children"):
                assert float(m[key]) >= 0, key
            assert float(m["peak_rss_mb"]) > 0
            assert float(m[stage]) + float(m["time.write_s"]) <= float(m["wall_time_s"])
        assert "time.sessionize_s" not in manifest.values
        assert "time.simulate_s" not in ingest.values

    def test_manifest_records_fits_time_within_write_time(self, tmp_path, graph):
        out, manifest = run_to_dir(tmp_path, "sim", 1, graph, export=True)
        ingest = run_ingest(out / "requests.log", tmp_path / "ingest")
        for m in (manifest, ingest):
            keys = list(m.values)
            assert keys[keys.index("time.write_s") - 1] == "time.fits_s"
            assert 0 < float(m["time.fits_s"]) <= float(m["time.write_s"])

    def test_manifest_records_peak_rss_by_stage(self, tmp_path, graph):
        out, manifest = run_to_dir(tmp_path, "sim", 2, graph, export=True)
        ingest = run_ingest(out / "requests.log", tmp_path / "ingest")
        graph_rss, simulate_rss, peak = (
            float(manifest[key]) for key in
            ("peak_rss_mb.graph", "peak_rss_mb.simulate", "peak_rss_mb"))
        assert 0 < graph_rss <= simulate_rss <= peak
        assert 0 < float(ingest["peak_rss_mb.sessionize"]) <= float(ingest["peak_rss_mb"])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_manifest_records_queue_times_and_rates(self, tmp_path, graph,
                                                    workers):
        out, manifest = run_to_dir(tmp_path, "sim", workers, graph, export=True)
        ingest = run_ingest(out / "requests.log", tmp_path / "ingest")
        keys = list(manifest.values)
        later = ["time.graph_s", "time.queue_compute_s", "time.queue_tail_s",
                 "time.merge_s", "clicks_per_s"]
        at = keys.index("time.write_s")
        assert keys[at + 1:at + 1 + len(later)] == later
        for key in later:
            assert float(manifest[key]) >= 0, key
        assert float(manifest["clicks_per_s"]) > 0
        assert (float(manifest["time.queue_compute_s"])
                <= float(manifest["time.simulate_s"]))
        # the merge is part of the queue tail; one queue merges nothing
        assert (float(manifest["time.merge_s"])
                <= float(manifest["time.queue_tail_s"]))
        if workers == 1:
            assert float(manifest["time.merge_s"]) == 0
        keys = list(ingest.values)
        assert keys[keys.index("time.write_s") + 1] == "lines_per_s"
        assert float(ingest["lines_per_s"]) > 0

    def test_manifest_contents(self, tmp_path, graph):
        _, manifest = run_to_dir(tmp_path, "m", 1, graph)
        assert manifest["model"] == "abc"
        assert manifest["total_sessions"] == str(15 * 25)
        assert float(manifest["mean_session_size"]) > 1.0
        reloaded = RunManifest.load(manifest.path)
        assert reloaded.values == manifest.values

    def test_expected_files_written(self, tmp_path, graph):
        out, manifest = run_to_dir(tmp_path, "files", 1, graph)
        for key, value in manifest.values.items():
            if key.startswith("file."):
                assert (out / value).is_file(), value

    def test_compare_run_to_itself_is_zero(self, tmp_path, graph):
        _, manifest = run_to_dir(tmp_path, "self", 1, graph)
        rows = compare_runs(manifest, manifest)
        assert len(rows) == 6
        assert {r.metric for r in rows} == {
            "page_traffic", "link_traffic", "empty_referrer",
            "session_size", "session_depth", "entropy"}
        assert all(r.ks == 0.0 for r in rows)
        assert all(r.mean_a == r.mean_b for r in rows)

    def test_compare_opens_each_file_once(self, tmp_path, graph, monkeypatch):
        _, a = run_to_dir(tmp_path, "a", 1, graph, export=True)
        b = run_ingest(tmp_path / "a" / "requests.log", tmp_path / "b")
        expected = format_comparison(compare_runs(a, b), "a", "b")  # nan != nan
        opened = Counter()

        def counting_open(path, *args, **kwargs):
            opened[Path(path)] += 1
            return open(path, *args, **kwargs)

        # run.py's own open: the metric files are all it opens
        monkeypatch.setattr(run_module, "open", counting_open, raising=False)
        assert format_comparison(compare_runs(a, b), "a", "b") == expected
        files = {m.metric_file(metric) for m in (a, b)
                 for metric in ("fits", *run_module.METRIC_FILES)}
        assert len(files) == 12  # six per run: sessions.csv holds two metrics
        assert opened == Counter(files)

    def test_ingest_of_export_matches_sim_outputs(self, tmp_path, graph):
        out, manifest = run_to_dir(tmp_path, "exp", 1, graph, export=True)
        ing = run_ingest(out / "requests.log", tmp_path / "ing")
        assert ing["total_sessions"] == manifest["total_sessions"]
        assert ing["mean_session_size"] == manifest["mean_session_size"]
        assert ing["mean_session_depth"] == manifest["mean_session_depth"]
        assert ing["mean_user_entropy"] == manifest["mean_user_entropy"]
        assert ing["records_out_of_order"] == "0"

    def test_compare_means_are_sums_of_the_read_floats(self, tmp_path, graph):
        out, a = run_to_dir(tmp_path, "a", 1, graph, export=True)
        b = run_ingest(out / "requests.log", tmp_path / "b")
        rows = {row.metric: row for row in compare_runs(a, b)}
        for metric, (name, column, _) in run_module.METRIC_FILES.items():
            for manifest, mean in ((a, rows[metric].mean_a), (b, rows[metric].mean_b)):
                with open(manifest.out_dir / name, newline="") as fh:
                    values = [float(row[column]) for row in csv.DictReader(fh)]
                assert mean == sum(values) / len(values), metric  # bit for bit


# keys as webnav writes them; values any text, edges and line breaks included
manifest_keys = st.from_regex(r"[a-z][a-z0-9_.]{0,15}", fullmatch=True)


class TestManifestFile:
    @given(st.dictionaries(manifest_keys, st.text(max_size=30), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_load_inverts_save(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run_manifest.txt"
            RunManifest(values).save(path)
            assert RunManifest.load(path).values == values

    def test_plain_values_are_written_as_they_are(self, tmp_path, graph):
        _, manifest = run_to_dir(tmp_path, "m", 1, graph)
        assert manifest.path.read_text(encoding="utf-8") == "".join(
            f"{key} = {value}\n" for key, value in manifest.values.items())

    def test_escapes(self, tmp_path):
        path = tmp_path / "m.txt"
        RunManifest({"a": "x\\n\ny\r", "b": os.fsdecode(b"p\xe9"), "c": " q\t"}).save(path)
        assert path.read_bytes() == (
            b"a = x\\\\n\\ny\\r\nb = p\\udce9\nc = \\u0020q\\u0009\n")

    # a log whose name holds a newline, or a byte that is not UTF-8
    @pytest.mark.parametrize("name", ["a\nb.log", os.fsdecode(b"a\xe9.log")],
                             ids=["newline", "not_utf8"])
    def test_compare_reads_the_manifest_of_any_log_name(self, tmp_path, capsys, name):
        log, out = tmp_path / name, tmp_path / "x"
        log.write_text("0\tu\t-\t/a\n1\tu\t/a\t/b\n")
        assert main(["ingest", str(log), "--out", str(out)]) == 0
        manifest = out / "run_manifest.txt"
        assert RunManifest.load(manifest)["log_path"] == str(log)
        capsys.readouterr()
        assert main(["compare", str(manifest), str(manifest)]) == 0
        assert capsys.readouterr().err == ""


class TestCli:
    def test_simulate_success_and_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--model", "pagerank", "--n", "800",
                     "--agents", "5", "--sessions", "10", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        assert (out / "run_manifest.txt").is_file()

    def test_bad_config_exits_2(self, tmp_path):
        assert main(["simulate", "--model", "abc", "--pt", "3.0",
                     "--out", str(tmp_path / "x")]) == 2

    def test_non_finite_param_exits_2(self, tmp_path):
        assert main(["simulate", "--model", "abc", "--e0", "nan",
                     "--out", str(tmp_path / "x")]) == 2

    def test_unreadable_file_exits_3(self, tmp_path):
        assert main(["ingest", str(tmp_path / "missing.log"),
                     "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("timeout", ["nan", "-5"])
    def test_nan_or_negative_timeout_exits_2(self, tmp_path, timeout):
        log = tmp_path / "requests.log"
        log.write_text("0\tu\t-\tA\n5000\tu\tA\tB\n")
        assert main(["ingest", str(log), "--timeout", timeout,
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_malformed_graph_line_exits_3(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 two\n")
        assert main(["simulate", "--graph", str(edges),
                     "--out", str(tmp_path / "x")]) == 3

    def test_graph_of_only_self_loops_exits_4(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 0\n1 1\n")
        assert main(["simulate", "--graph", str(edges),
                     "--out", str(tmp_path / "x")]) == 4

    def test_session_that_cannot_end_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(session_module, "MAX_SESSION_CLICKS", 2000)
        assert main(["simulate", "--model", "abc", "--n", "800", "--agents", "2",
                     "--sessions", "3", "--cf", "0", "--cb", "0",
                     "--out", str(tmp_path / "x")]) == 2
        assert "passed 2000 clicks: model abc" in capsys.readouterr().err

    def test_empty_log_exits_4(self, tmp_path):
        log = tmp_path / "empty.log"
        log.write_text("")
        assert main(["ingest", str(log), "--out", str(tmp_path / "x")]) == 4

    def test_log_line_not_utf8_is_skipped_and_counted(self, tmp_path, capsys):
        log = tmp_path / "requests.log"
        log.write_bytes(b"1\tu\t-\t/a\n2\tu\t/a\t/b\xe9\n3\tu\t/a\t/c\n")
        assert main(["ingest", str(log), "--out", str(tmp_path / "x")]) == 0
        manifest = RunManifest.load(tmp_path / "x" / "run_manifest.txt")
        assert (manifest["records_parsed"], manifest["records_skipped"],
                manifest["records_skipped.not_utf8"]) == ("2", "1", "1")
        assert (tmp_path / "x" / "page_traffic.csv").read_text() == (
            "page,count\n/a,1\n/c,1\n")
        assert capsys.readouterr().err == ""

    # a byte that is not UTF-8, in a comment line where the format has one
    @pytest.mark.parametrize("flag, text, code, message", [
        ("--graph", b"0 1\n# caf\xe9\n1 0\n", 3, "{path}:2: bytes that are not UTF-8"),
        ("--config", b"model = abc\n# caf\xe9\n", 2,
         "{path}:2: bytes that are not UTF-8"),
        ("--sessions-file", b"5\n\xe9\n", 2, "{path}:2: bytes that are not UTF-8"),
    ], ids=["graph", "config", "sessions_file"])
    def test_input_file_not_utf8_exits_cleanly(self, tmp_path, capsys, flag, text,
                                               code, message):
        path = tmp_path / "in.txt"
        path.write_bytes(text)
        assert main(["simulate", flag, str(path), "--agents", "2", "--n", "300",
                     "--out", str(tmp_path / "x")]) == code
        # one line, no traceback
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not (tmp_path / "x").exists()

    def test_manifest_not_utf8_exits_2(self, tmp_path, capsys):
        bad, good = tmp_path / "bad.txt", tmp_path / "m.txt"
        bad.write_bytes(b"tool = webnav\na = b\xe9\n")
        good.write_text("a = b\n")
        assert main(["compare", str(bad), str(good)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:2: bytes that are not UTF-8\n"

    def test_manifest_line_without_equals_exits_2(self, tmp_path, capsys):
        bad, good = tmp_path / "bad.txt", tmp_path / "m.txt"
        bad.write_text("tool = webnav\n# a comment\nno equals sign\n")
        good.write_text("a = b\n")
        assert main(["compare", str(bad), str(good)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:3: expected 'key = value'\n"

    # one metric file of run b damaged: (file, damage, line the error names)
    @pytest.mark.parametrize("name, damage, line", [
        ("page_traffic.csv", lambda data: b"", 1),
        ("page_traffic.csv", lambda data: data.replace(b"page,count", b"page,hits"), 1),
        ("page_traffic.csv", lambda data: re.sub(rb"(?m)^(\d+),\d+$", rb"\1,x", data,
                                                 count=1), 2),
        ("entropy.csv", lambda data: data.replace(b"\n", b"\n\xe9", 1), 2),
        ("fits.csv", lambda data: re.sub(rb"(?m)^([^,\n]*),[^,\n]*", rb"\1", data), 1),
    ], ids=["empty", "column_renamed", "count_not_a_number", "not_utf8", "no_alpha"])
    def test_compare_damaged_metric_file_exits_3(self, tmp_path, capsys, name, damage,
                                                 line):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--model", "pagerank", "--n", "300", "--agents", "2",
                     "--sessions", "5", "--out", str(a)]) == 0
        shutil.copytree(a, b)
        path = b / name
        path.write_bytes(damage(path.read_bytes()))
        capsys.readouterr()
        assert main(["compare", str(a / "run_manifest.txt"),
                     str(b / "run_manifest.txt")]) == 3
        err = capsys.readouterr().err
        # one line, no traceback
        assert err.startswith(f"error: {path}:{line}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--seed", "-1"], ["--config", "{conf}"]], ids=["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = -3\n")
        argv = [arg.format(conf=conf) for arg in argv]
        assert main(["simulate", "--n", "300", "--agents", "3", "--sessions", "5",
                     *argv, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")
        assert not (tmp_path / "x").exists()

    def test_negative_seed_seeds_agents_on_a_given_graph(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        assert main(["simulate", "--graph", str(edges), "--agents", "2",
                     "--sessions", "3", "--seed", "-1",
                     "--out", str(tmp_path / "x")]) == 0

    # spellings int() reads, and an id too large for int64
    @pytest.mark.parametrize("token, message", [
        ("2_0", "not a base-10 unsigned integer"), ("+2", "not a base-10 unsigned integer"),
        ("\u0663", "not a base-10 unsigned integer"),
        ("100000000000000000000000", "not below 2**63")],
        ids=["underscore", "plus", "arabic_indic", "too_large"])
    def test_graph_id_not_plain_digits_exits_3(self, tmp_path, capsys, token, message):
        edges = tmp_path / "edges.txt"
        edges.write_text(f"0 1\n1 {token}\n", encoding="utf-8")
        assert main(["simulate", "--graph", str(edges), "--agents", "2",
                     "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == (
            f"error: {edges}:2: node id {message} in '1 {token}'\n")
        assert not (tmp_path / "x").exists()

    # spellings int() or float() reads, in a flag and in a quota file
    @pytest.mark.parametrize("flag, value", [
        ("--agents", "1_0"), ("--sessions", " +5 "), ("--seed", "\u0663"),
        ("--sessions-file", "1_0"), ("--sessions-file", "+2"),
        ("--sessions-file", "\u0663"),
        ("--pt", "2_5e-2"), ("--beta", "\u0661.\u0665"), ("--gamma", "+2.5"),
        ("--e0", " 0.5"), ("--delta0", "0.5\t"), ("--timeout", "\u0661\u0668")])
    def test_integer_not_plain_digits_exits_2(self, tmp_path, capsys, flag, value):
        argv = ["simulate", "--agents", "2", "--n", "300"]
        if flag == "--sessions-file":
            path = tmp_path / "quotas.txt"
            path.write_text(f"1\n{value}\n", encoding="utf-8")
            argv += [flag, str(path)]
            message = f"{path}:2: bad session count {value!r}"
        else:
            if flag == "--timeout":
                log = tmp_path / "requests.log"
                log.write_text("0\tu\t-\tA\n")
                argv = ["ingest", str(log)]
            argv += [flag, value]
            message = f"bad value for {flag[2:]}: {value!r}"
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_ingest_and_compare_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--model", "abc", "--n", "800",
                     "--agents", "8", "--sessions", "15", "--seed", "6",
                     "--out", str(out), "--export-log"]) == 0
        ing = tmp_path / "ing"
        assert main(["ingest", str(out / "requests.log"),
                     "--out", str(ing)]) == 0
        assert main(["compare", str(out / "run_manifest.txt"),
                     str(ing / "run_manifest.txt")]) == 0
        report = capsys.readouterr().out
        assert "session_size" in report
        # identical distributions: every KS column entry is zero
        for line in report.splitlines():
            if line.startswith(("page_traffic", "link_traffic", "empty_ref",
                                "session_", "entropy")):
                assert line.split()[-1] == "0.00000"

    def test_config_file_flag(self, tmp_path):
        conf = tmp_path / "run.conf"
        out = tmp_path / "out"
        conf.write_text(
            f"model = pagerank\nn = 600\nagents = 4\nsessions = 6\n"
            f"seed = 9\nout = {out}\n")
        assert main(["simulate", "--config", str(conf)]) == 0
        manifest = RunManifest.load(out / "run_manifest.txt")
        assert manifest["model"] == "pagerank"


class _Captured(Exception):
    """Carries the SimConfig that `webnav simulate` would have run."""


def _cli_config(monkeypatch, argv) -> SimConfig:
    def capture(config):
        raise _Captured(config)
    monkeypatch.setattr(cli, "run_simulation", capture)
    with pytest.raises(_Captured) as info:
        main(["simulate", *argv])
    return info.value.args[0]


def _simulate_flags() -> set:
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices["simulate"]._actions
    return {flag for a in actions for flag in a.option_strings} - {"-h", "--help"}


class TestOptionTable:
    @pytest.mark.parametrize("key", list(_CONFIG_KEYS))
    def test_flag_and_config_line_agree(self, key, tmp_path, monkeypatch):
        attr, conv, _ = _CONFIG_KEYS[key]
        raw = OPTION_VALUES[key]
        flag = "--" + key.replace("_", "-")
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {raw}\n")
        by_flag = _cli_config(monkeypatch, [flag] if conv is None else [flag, raw])
        by_file = _cli_config(monkeypatch, ["--config", str(conf)])

        def read(config):
            return getattr(config.params if attr in _PARAM_FIELDS else config, attr)

        assert read(by_flag) == read(by_file) != read(SimConfig())

    def test_unknown_model_exits_2(self, tmp_path):
        assert main(["simulate", "--model", "teleport-only",
                     "--out", str(tmp_path / "x")]) == 2

    def test_readme_lists_every_flag(self):
        listed = re.search(r"Flags: `([^`]*)`", README.read_text()).group(1)
        assert set(listed.split()) == _simulate_flags() - {"--config"}
