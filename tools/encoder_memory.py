"""Print the large-cell memory table for a checkout, k = 4..7.

    python3 tools/encoder_memory.py <checkout>

Each row runs in a fresh process on <checkout>/src, with
OPENBLAS_NUM_THREADS=1. A row takes the k x k x k supercells of two synthetic
two-site cells (cutoff 5 A) as one pretraining batch of 2 graphs, 4 views,
at dim 64 with 2 layers and 8 radial functions, and prints:

    N            sites per supercell
    edges        directed edges of the 4-view union the encoder runs on
    step         median wall time of 3 warm pretrain_losses + backward calls
    held         tracemalloc bytes held after pretrain_losses (the forward)
    peak         tracemalloc peak over pretrain_losses and its backward
    encoder      the encoder alone, held / peak: encode on the same 4 views,
                 then the backward of sum_all of its output

MB are 10**6 bytes. Set-up (graph builds, the cached pair targets) happens
before any tracemalloc window, so each window holds only the step's arrays.
"""

import os
from pathlib import Path
import statistics
import subprocess
import sys
import time
import tracemalloc

KS = (4, 5, 6, 7)
SEEDS = [0, 1]  # the view seeds of the batch


def supercell(structure, k):
    """k x k x k supercell; site c * N + i is site i of the c-th cell."""
    import itertools

    import numpy as np
    from crystalembed.structures import CrystalStructure

    cells = np.array(list(itertools.product(range(k), repeat=3)), dtype=float)
    frac = (structure.frac_coords[None, :, :] + cells[:, None, :]) / k
    return CrystalStructure(lattice=structure.lattice * k,
                            frac_coords=frac.reshape(-1, 3),
                            atomic_numbers=np.tile(structure.atomic_numbers,
                                                   len(cells)),
                            id=f"{structure.id}x{k}")


def measure(k: int) -> str:
    """One table row for the k-supercell pair."""
    import numpy as np
    from crystalembed import autograd as ag
    from crystalembed.augmentation import batch_views, two_views
    from crystalembed.encoder import encode
    from crystalembed.model import init_model_params
    from crystalembed.periodic_graph import build_periodic_graph
    from crystalembed.synthetic import make_pretraining_structures
    from crystalembed.training import (PretrainConfig, pair_targets,
                                       pretrain_losses)

    cfg = PretrainConfig(dim=64, num_layers=2, rbf_count=8, cutoff=5.0)
    graphs = [build_periodic_graph(supercell(s, k), cfg.cutoff)
              for s in make_pretraining_structures(2, seed=3)]
    for g in graphs:
        pair_targets(g)  # cached on the graph, outside every window
    model = init_model_params(np.random.default_rng(0), cfg.dim, cfg.num_layers,
                              cfg.rbf_count, cfg.cutoff, cfg.temperature,
                              cfg.class_weights)

    def step():
        losses = pretrain_losses(graphs, model, cfg, SEEDS)
        losses[3].backward()

    step()  # warm-up
    times = []
    for _ in range(3):
        start = time.perf_counter()
        step()
        times.append(time.perf_counter() - start)

    tracemalloc.start()
    try:
        losses = pretrain_losses(graphs, model, cfg, SEEDS)
        held = tracemalloc.get_traced_memory()[0]
        losses[3].backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del losses

    batch = batch_views([view for g, seed in zip(graphs, SEEDS)
                         for view in two_views(g, cfg.mask_ratio, cfg.drop_ratio,
                                               seed)])
    tracemalloc.start()
    try:
        h = encode(model.encoder, batch)
        enc_held = tracemalloc.get_traced_memory()[0]
        ag.sum_all(h).backward()
        enc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    mb = 1e-6
    return (f"| {k} | {graphs[0].num_nodes} | {batch.graph.num_edges:,} "
            f"| {statistics.median(times) * 1e3:,.0f} ms | {held * mb:.1f} MB "
            f"| {peak * mb:.1f} MB | {enc_held * mb:.1f} / {enc_peak * mb:.1f} MB |")


def main(checkout: str) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    print("| k | N | edges | step | held after forward | step peak "
          "| encoder alone, held / peak |")
    print("|---|---|---|---|---|---|---|")
    for k in KS:
        row = subprocess.run([sys.executable, __file__, "--row", str(k)], env=env,
                             check=True, stdout=subprocess.PIPE, text=True).stdout
        print(row.strip(), flush=True)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--row":
        print(measure(int(sys.argv[2])))
    elif len(sys.argv) == 2:
        main(sys.argv[1])
    else:
        sys.exit(__doc__)
