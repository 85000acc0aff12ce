import filecmp
from pathlib import Path

import pytest

from webnav import (ModelParams, RunManifest, SimConfig, compare_runs,
                    generate_scale_free, run_ingest, run_simulation, simulate)
from webnav.cli import main
from webnav.errors import ConfigurationError
from webnav.run import build_config, parse_config_file, partition_agents


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

    def test_sessions_file_count_mismatch(self, tmp_path):
        qf = tmp_path / "quotas.txt"
        qf.write_text("3\n1\n")
        with pytest.raises(ConfigurationError):
            SimConfig(n_agents=3, sessions_file=str(qf)).quotas()


class TestPartition:
    def test_balance_invariant(self):
        quotas = [1, 50, 3, 9, 9, 9, 2, 70, 5, 5, 5, 1]
        queues = partition_agents(quotas, 4)
        loads = [sum(quotas[a] for a in q) for q in queues]
        assert sum(len(q) for q in queues) == len(quotas)
        assert max(loads) <= min(loads) + max(quotas)

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
            # per-user vectors become entropies in the workers; none ship
            assert result.tally.per_user_visits == {}
            snapshot = (result.descriptors, dict(result.tally.page_visits),
                        result.entropies, dict(result.click_lengths))
            if base is None:
                base = snapshot
            else:
                assert snapshot == base


def run_to_dir(tmp_path, name, workers, graph, export=False):
    out = tmp_path / name
    config = SimConfig(model="abc", graph_n=graph.n, n_agents=15, sessions=25,
                       seed=31, workers=workers, out_dir=str(out),
                       export_log=export)
    manifest = run_simulation(config, graph=graph)
    return out, manifest


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

    def test_ingest_of_export_matches_sim_outputs(self, tmp_path, graph):
        out, manifest = run_to_dir(tmp_path, "exp", 1, graph, export=True)
        ing = run_ingest(out / "requests.log", tmp_path / "ing")
        assert ing["total_sessions"] == manifest["total_sessions"]
        assert ing["mean_session_size"] == manifest["mean_session_size"]
        assert ing["mean_session_depth"] == manifest["mean_session_depth"]
        assert ing["mean_user_entropy"] == manifest["mean_user_entropy"]


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

    def test_unreadable_file_exits_3(self, tmp_path):
        assert main(["ingest", str(tmp_path / "missing.log"),
                     "--out", str(tmp_path / "x")]) == 3

    def test_empty_log_exits_4(self, tmp_path):
        log = tmp_path / "empty.log"
        log.write_text("")
        assert main(["ingest", str(log), "--out", str(tmp_path / "x")]) == 4

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
