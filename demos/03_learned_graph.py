"""Inspect the graph a trained model has learned between grid cells.

The adjacency is not an input: it is rebuilt on every forward pass from
two node-embedding tables, relu(tanh(alpha * (E1 E2^T - E2 E1^T))), so at
most one direction of each cell pair survives and training moves edges
around freely. This script trains briefly on the synthetic cube, pulls
the embeddings out of the fitted parameters, and looks at what they
encode: edge weights, directions, and how the learned structure compares
with a plain correlation graph on the same data.
"""

from pathlib import Path

import numpy as np

from ensograph import (
    ModelConfig,
    SynthConfig,
    TrainConfig,
    correlation_graph,
    export_edges,
    generate,
    kept_adjacency,
    make_samples,
    region_nodes,
)
from ensograph.grid import ONI_BOX, node_coords
from ensograph.train import train

cube, _ = generate(SynthConfig(months=240))
nodes = region_nodes(cube.grid, ONI_BOX)
config = ModelConfig(
    n_nodes=len(nodes),
    horizon=2,
    residual_channels=8,
    conv_channels=8,
    skip_channels=8,
    end_channels=16,
    graph={"embed_dim": 4, "alpha": 3.0, "topk": 5},
    seed=0,
)
samples = make_samples(cube, nodes, config.window, config.horizon)
result = train(config, TrainConfig(epochs=6, seed=0), samples)
print(f"trained {config.layers}-layer model on {len(samples)} windows\n")

a = kept_adjacency(result.params["e1"].data, result.params["e2"].data, config.graph)

print(f"adjacency: {np.count_nonzero(a)} directed edges over {len(nodes)} cells")
print(f"weight range ({a[a > 0].min():.4f}, {a.max():.4f}), "
      f"diagonal max {np.abs(np.diagonal(a)).max():.1e}")
both_ways = np.count_nonzero((a * a.T) != 0.0)
print(f"pairs live in both directions: {both_ways} (the construction forbids them)\n")

coords = node_coords(cube.grid, nodes)
print("five heaviest edges (lat,lon -> lat,lon):")
src, dst = np.nonzero(a)
order = np.argsort(-a[src, dst])[:5]
for i in order:
    (slat, slon), (dlat, dlon) = coords[src[i]], coords[dst[i]]
    print(f"  ({slat:+.0f},{slon:.0f}) -> ({dlat:+.0f},{dlon:.0f})  "
          f"weight {a[src[i], dst[i]]:.4f}")

# a data-driven reference graph: |r| >= 0.6 between cell series
ref = correlation_graph(cube, nodes, tau=0.6)
learned_pairs = {(min(i, j), max(i, j)) for i, j in zip(src, dst)}
ref_pairs = {(min(i, j), max(i, j)) for i, j in zip(*np.nonzero(ref))}
overlap = len(learned_pairs & ref_pairs)
print(f"\ncorrelation graph at tau=0.6: {len(ref_pairs)} cell pairs; "
      f"{overlap}/{len(learned_pairs)} learned pairs coincide")

out = Path("demo_out")
out.mkdir(exist_ok=True)
n = export_edges(a, cube.grid, nodes, out / "edges.csv")
print(f"exported {n} edges to {out / 'edges.csv'} (heaviest first)")
