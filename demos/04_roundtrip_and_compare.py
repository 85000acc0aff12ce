"""Export a simulated run as a request log, re-ingest it, and compare.

Every click the simulated browser would actually issue (session roots and
first visits; cache hits excluded) is written in the log format the
sessionizer reads. Rebuilding sessions from that log must reproduce the
run's descriptors exactly, which the comparison report shows as zero
Kolmogorov-Smirnov distance on all six metrics.
"""

import tempfile
from pathlib import Path

from webnav import (SimConfig, compare_runs, format_comparison, run_ingest,
                    run_simulation)

with tempfile.TemporaryDirectory() as tmp:
    sim_dir = Path(tmp) / "sim"
    config = SimConfig(model="abc", graph_n=10_000, n_agents=100, sessions=100,
                       seed=42, workers=2, out_dir=str(sim_dir), export_log=True)
    print("simulating 100 agents x 100 sessions with log export...")
    sim_manifest = run_simulation(config)
    log_path = sim_dir / sim_manifest["file.request_log"]
    n_lines = sum(1 for _ in open(log_path))
    print(f"  exported {n_lines} requests to {log_path.name}")

    print("re-ingesting the exported log...")
    ingest_manifest = run_ingest(log_path, Path(tmp) / "ingest")
    print(f"  sessions: sim={sim_manifest['total_sessions']} "
          f"ingest={ingest_manifest['total_sessions']}")

    rows = compare_runs(sim_manifest, ingest_manifest)
    print()
    print(format_comparison(rows, "simulated", "re-ingested"))
