"""Print the read path's median per-stage times for a checkout.

    python3 tools/read_path.py <checkout>

Each row runs in a fresh process on <checkout>/src, with
OPENBLAS_NUM_THREADS=1, so no row's allocations shape the next row's. A row
takes the k x k x k supercell, k = 1..5, of a synthetic two-site cell
(N = 2, 16, 54, 128 and 250), at cutoff 5 A, and prints per structure, in us:

    parse      parse_jsonl of the structure's JSONL line
    search     build_periodic_graph less the graph check it ends with
               (the median build less the median check)
    check      PeriodicGraph._check of the built graph
    histogram  ingest's per-graph multiplicity histogram: multiplicity_targets
               and the count of its pairs i <= j per class
    serialize  serialize_jsonl

and then extraction with ingest-extract's model (dim 16, 2 layers, 8 radial
functions): extract_embeddings over copies of the graph, at least 32,768
edges in all, as the number of unions it encodes and ms per union.

Each figure is the median over repeated calls after one warm-up call: as
many as fit in 0.2 s (at least 5, at most 2,000), 5 for extraction.
"""

import math
import os
from pathlib import Path
import statistics
import subprocess
import sys
import time

from encoder_memory import supercell

KS = (1, 2, 3, 4, 5)
CUTOFF = 5.0
EXTRACT_EDGES = 32_768


def median_s(fn, budget=0.2, most=2000, least=5) -> float:
    """Median wall time of one fn() call, in seconds."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < least or (len(times) < most
                                 and time.perf_counter() - start < budget):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def histogram_of(cli):
    """The checkout's per-graph ingest histogram. A cli without
    _multiplicity_histogram counts the upper triangle inside cmd_ingest;
    that count is copied here."""
    if hasattr(cli, "_multiplicity_histogram"):
        return cli._multiplicity_histogram
    import numpy as np

    def upper_triangle(g):
        classes = cli.multiplicity_targets(g).classes
        return np.bincount(classes[np.triu_indices(g.num_nodes)],
                           minlength=cli.NUM_MULTIPLICITY_CLASSES)
    return upper_triangle


def row(k: int) -> str:
    import numpy as np
    from crystalembed import cli, training
    from crystalembed.model import init_model_params
    from crystalembed.periodic_graph import build_periodic_graph
    from crystalembed.structures import parse_jsonl, serialize_jsonl
    from crystalembed.synthetic import make_pretraining_structures

    cfg = training.PretrainConfig(dim=16, num_layers=2, rbf_count=8,
                                  cutoff=CUTOFF)
    model = init_model_params(np.random.default_rng(0), cfg.dim, cfg.num_layers,
                              cfg.rbf_count, cfg.cutoff, cfg.temperature,
                              cfg.class_weights)
    histogram = histogram_of(cli)
    unions = []
    batch_graphs = training.batch_graphs

    def counted(graphs):
        unions.append(len(graphs))
        return batch_graphs(graphs)

    training.batch_graphs = counted
    s = supercell(make_pretraining_structures(1, seed=3)[0], k)
    line = serialize_jsonl(s)
    g = build_periodic_graph(s, CUTOFF)
    build = median_s(lambda: build_periodic_graph(s, CUTOFF))
    check = median_s(g._check)
    stages = [median_s(lambda: parse_jsonl(line)), build - check, check,
              median_s(lambda: histogram(g)),
              median_s(lambda: serialize_jsonl(s))]
    graphs = [g] * math.ceil(EXTRACT_EDGES / g.num_edges)
    extract = median_s(lambda: training.extract_embeddings(model, graphs),
                       budget=0, least=5)
    unions.clear()
    training.extract_embeddings(model, graphs)
    return (f"| {s.num_sites} | {g.num_edges:,} | "
            + " | ".join(f"{x * 1e6:,.1f}" for x in stages)
            + f" | {len(graphs)} | {len(unions)} "
              f"| {extract / len(unions) * 1e3:.2f} |")


def main(checkout: str) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    print("| N | edges | parse us | search us | check us | histogram us "
          "| serialize us | graphs extracted | unions | ms / union |")
    print("|---|---|---|---|---|---|---|---|---|---|", flush=True)
    for k in KS:
        subprocess.run([sys.executable, __file__, "--row", str(k)], env=env,
                       check=True)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--row":
        print(row(int(sys.argv[2])), flush=True)
    elif len(sys.argv) == 2:
        main(sys.argv[1])
    else:
        sys.exit(__doc__)
