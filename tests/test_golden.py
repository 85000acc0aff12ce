"""Golden outputs: the exact bytes of a small simulate -> ingest run per model.

Every output byte is a function of (config, seed), whatever the worker
count, so these digests must not move unless a change is meant to alter
outputs, and 1 and 2 workers must give them alike. fits.csv and the
dist_*.csv files have no digest (their float sums depend on numpy's
summation order), and neither has the manifest (wall time, paths).

Both pipelines write ids in one order, so the re-ingested log writes the
simulation's bytes: every file but the manifest and session_clicks.csv
(the simulation also counts back clicks and cache hits), dist_*.csv and
fits.csv included, must equal the simulated one.
"""

import hashlib

import pytest

from webnav import SimConfig, run_ingest, run_simulation

TALLY_FILES = ("sessions.csv", "page_traffic.csv", "link_traffic.csv",
               "empty_referrer_traffic.csv", "entropy.csv", "session_clicks.csv")

# sha256 of each file; "sim" is the simulated run, "ingest" its re-ingested
# log, whose other files are the simulation's
GOLDEN = {
    "pagerank": {
        "sim": {
            "requests.log":
                "87897a3ae2bd9d920da5dc21dc689cbfe9a9e368c0d7663060b5749283304e37",
            "sessions.csv":
                "777ea0ad61ad017df5e74f33c24ef6ca749b6b64a5a3ad10174d095d588463ce",
            "page_traffic.csv":
                "8d2f3cfd7e985b07b433e1f6c9adc828952cc1d603f52de54984631ad2835dd0",
            "link_traffic.csv":
                "4836e5fad7ce99612ab829735d87f7f4a4c3c8d52494562e877db05db8d515a8",
            "empty_referrer_traffic.csv":
                "b343af8fb262cdbaedd7fc6be02e893622626f9d220ae10bffa90851be4a6282",
            "entropy.csv":
                "fe70d365cb592ebfc54038baad984671de986ec4bba01ac5788160dd3d7d763c",
            "session_clicks.csv":
                "0dd1e960c2592dbd043f865143a4ac1d4420829eb8f16766d05c8892a49f419d",
        },
        "ingest": {
            "session_clicks.csv":
                "a8cf1829cf2a33d5ff997b5f9bb8b8faac58c0a41fddba1466fb951f9496d06c",
        },
    },
    "bookrank": {
        "sim": {
            "requests.log":
                "53e7327a43e8a5e8848cd29a1a5e97435ecd38431f4dfe7f27ae531d6f6db00a",
            "sessions.csv":
                "2a6cf3d44be782c79f4041e9f5090e776561a45751ef80b34724f4ae3557dda8",
            "page_traffic.csv":
                "46c0299eac68c4dca9f0dc221c619dcc4e45c2a7f4ead26f4a5e2b2dc43a06a3",
            "link_traffic.csv":
                "7d79ce9eade839476aeacfd745a9bf5a941a032683239843e6720525e999b28e",
            "empty_referrer_traffic.csv":
                "3d5da2db390a872fd3672cc93094885f64a7ebca6da6cc7e8b744a3355f78f78",
            "entropy.csv":
                "5abc022abbd7ff7b7dfc9d89660badae505ec5f559972c66aab67b86b5dce970",
            "session_clicks.csv":
                "323317e127087ff984ebe5dccf7a002c65da14cecf87d76a198c25aabdadf2be",
        },
        "ingest": {
            "session_clicks.csv":
                "3a50e71b44107cad1cc40ecb381712c7d4b9512c019cba409ac34d4a1886f1bd",
        },
    },
    "abc": {
        "sim": {
            "requests.log":
                "b0da498838052b34ded14f651b5feee933a2dce890cf67747708f20a05d51aaf",
            "sessions.csv":
                "1429feaeb450e189e93315514673647b135daa880ca4d37e0406bc9bb1ad0981",
            "page_traffic.csv":
                "75d1624603283405767270447d205dab14e971216be4260f12a2a1ad5573d95c",
            "link_traffic.csv":
                "a4fb65f77c778c618e47ea062fc140f250f7022546c5260734e30e381c6e73b3",
            "empty_referrer_traffic.csv":
                "af2ded2f0125f142269f0b161d8170837f65eafc1e0631b6eeaa65dc4548ef64",
            "entropy.csv":
                "7169ee374977f1379218339c4347ce51fcce0ec9a46ea464568a5c3566e80f4d",
            "session_clicks.csv":
                "f6b23f0209f764b373bb6f9587caeaec689eb9bd5e334bcac3ff905d194fa09b",
        },
        "ingest": {
            "session_clicks.csv":
                "b4218471ac28b26bc62cbedfd87d9118a8bef02ef121463ca67e8a888ad9dfbd",
        },
    },
}


def _digests(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names}


# the 1-worker case keeps the plain model id
@pytest.mark.parametrize("model, workers", [
    pytest.param(model, workers, id=model if workers == 1 else f"{model}-2workers")
    for model in sorted(GOLDEN) for workers in (1, 2)])
def test_golden_outputs(tmp_path, model, workers):
    sim_dir = tmp_path / "sim"
    run_simulation(SimConfig(model=model, graph_n=5000, n_agents=40, sessions=50,
                             seed=31, workers=workers, out_dir=str(sim_dir),
                             export_log=True))
    ing_dir = tmp_path / "ingest"
    run_ingest(sim_dir / "requests.log", ing_dir)
    assert _digests(sim_dir, ("requests.log",) + TALLY_FILES) == GOLDEN[model]["sim"]
    assert _digests(ing_dir, ("session_clicks.csv",)) == GOLDEN[model]["ingest"]
    shared = sorted(p.name for p in ing_dir.iterdir()
                    if p.name not in ("session_clicks.csv", "run_manifest.txt"))
    assert len(shared) == 11  # five tally files, five dist_*.csv, fits.csv
    for name in shared:
        assert (ing_dir / name).read_bytes() == (sim_dir / name).read_bytes(), name
