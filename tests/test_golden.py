"""Golden outputs: the exact bytes of a small simulate -> ingest run per model.

Every output byte is a function of (config, seed), so these digests must
not move unless a change is meant to alter outputs. fits.csv and the
dist_*.csv files are left out (their float sums depend on numpy's
summation order), and so is the manifest (wall time, paths).
"""

import hashlib

import pytest

from webnav import SimConfig, run_ingest, run_simulation

TALLY_FILES = ("sessions.csv", "page_traffic.csv", "link_traffic.csv",
               "empty_referrer_traffic.csv", "entropy.csv", "session_clicks.csv")

# sha256 of each file; "sim" is the simulated run, "ingest" its re-ingested log
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
            "sessions.csv":
                "9f0b4494d54fdda7921c299705569873dadb0a8de4d0ac4010aaa37c6f51b29c",
            "page_traffic.csv":
                "d75ac2174ccc4c1f6a81bf6da074f2e1e1cc73933f598cf46d27d4761758a77d",
            "link_traffic.csv":
                "a01c9512ea089b8f7e44ab3af221155bcd2e797b46e902e22569bb1efb5480f9",
            "empty_referrer_traffic.csv":
                "dbd8c28f1471d5e01d92d2f253f06c52f516d216b8c546cf53754d7095cbf791",
            "entropy.csv":
                "3823d703e3f69dd88b69a5564042b976b68413bdd6ebdcc14543d4b20a67c21e",
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
            "sessions.csv":
                "e29205880bcc230c182a8c0d4186f59ddcb240db29002bf9912ae7f65f669d9b",
            "page_traffic.csv":
                "0ab1460445431b905005eff9199fe6264e73b5f4b1ed01e8d0e06c06854cf4f8",
            "link_traffic.csv":
                "e97b03b3670b6c7bc685d5bf7e8d4324ccbe0c1449ede567ee91773d848bab51",
            "empty_referrer_traffic.csv":
                "5f5dafd7c010ef2227962d9a063580cb05b4993a5589d422a82087a028dd0214",
            "entropy.csv":
                "11db36c0215010250313c7536957fae9146e809225b46e7a6b6613c84bbaa84a",
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
            "sessions.csv":
                "cb6dd6359aea0e06830f2a55ac11abaf30aea79d9691933f34b73dcbf65b6626",
            "page_traffic.csv":
                "a3a55fcf8fe599a81a9f8012d1f013b79a2bd47765da896cdb28e3083ff23fda",
            "link_traffic.csv":
                "3403236ba4ff64ba3b1d3dac06277ba6fb5393868c278451c07a4d7739be7ae8",
            "empty_referrer_traffic.csv":
                "eab48d29bded5a78e23dcccad207d1c1be65f875000c8164b1754479c2438359",
            "entropy.csv":
                "7e9b64601bd5e4697591e77f1f041c19fed3d29fb557825d4264b6706299dfc4",
            "session_clicks.csv":
                "b4218471ac28b26bc62cbedfd87d9118a8bef02ef121463ca67e8a888ad9dfbd",
        },
    },
}


def _digests(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("model", sorted(GOLDEN))
def test_golden_outputs(tmp_path, model):
    sim_dir = tmp_path / "sim"
    run_simulation(SimConfig(model=model, graph_n=5000, n_agents=40, sessions=50,
                             seed=31, workers=1, out_dir=str(sim_dir),
                             export_log=True))
    ing_dir = tmp_path / "ingest"
    run_ingest(sim_dir / "requests.log", ing_dir)
    assert _digests(sim_dir, ("requests.log",) + TALLY_FILES) == GOLDEN[model]["sim"]
    assert _digests(ing_dir, TALLY_FILES) == GOLDEN[model]["ingest"]
