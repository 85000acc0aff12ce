"""Run the three navigation models on one graph and compare their traffic.

PageRank teleports uniformly; BookRank teleports to frequency-ranked
bookmarks; the energy-driven model (abc) browses until its attention runs
out. All three share the same forward dynamics and browser-cache rule, so
the differences below come from memory and topicality alone.
"""

import numpy as np

from webnav import SimConfig, fit_power_law, generate_scale_free, simulate

graph = generate_scale_free(20_000, 3, 2.1, seed=5)
print(f"graph: {graph.n} nodes, {graph.n_edges} directed entries\n")

header = (f"{'model':<10} {'mean size':>9} {'max size':>8} {'P(size>=10)':>11} "
          f"{'max traffic':>11} {'alpha(traffic)':>14} {'entropy':>8}")
print(header)
print("-" * len(header))

for model in ("pagerank", "bookrank", "abc"):
    config = SimConfig(model=model, n_agents=300, sessions=300, seed=11, workers=2)
    result = simulate(config, graph=graph)
    sizes = [d.size for d in result.descriptors]
    (_, traffic), _, _ = result.tally.columns()  # nonzero page counts
    alpha = fit_power_law(traffic, xmin=10).alpha
    entropy = np.mean([s for _, s, _ in result.entropies])
    p10 = sum(s >= 10 for s in sizes) / len(sizes)
    mean_size = result.summary()["mean_session_size"]
    print(f"{model:<10} {mean_size:>9.2f} {max(sizes):>8} "
          f"{p10:>11.4f} {traffic.max():>11} {alpha:>14.2f} {entropy:>8.2f}")

print("""
Readings: the bookmark models fatten the traffic tail (smaller fitted
exponent) and lower the per-user entropy relative to the memoryless
walker; the energy-driven model keeps sessions near two unique pages on
average while still producing rare very large sessions.""")
