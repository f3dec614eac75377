"""Acceptance gate: nine end-to-end checks, one test per criterion.

Each test prints a single "criterion N: PASS" line (visible with -s); a
failed assert yields the corresponding FAILED line from pytest. Thresholds
for the overfitting and sweep criteria were calibrated on this benchmark
before being frozen here.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from crystalembed import autograd as ag
from crystalembed.augmentation import two_views
from crystalembed.contrastive import info_nce
from crystalembed.decoders import adj_weighted_ce, node_nll
from crystalembed.downstream import (DownstreamConfig, improvement_pct,
                                     label_fraction_sweep,
                                     render_sweep_table, validate_report)
from crystalembed.embeddings import load_table_csv, save_table_csv
from crystalembed.model import init_model_params
from crystalembed.periodic_graph import (build_periodic_graph,
                                         multiplicity_targets)
from crystalembed.synthetic import (make_labeled_structures,
                                    make_pretraining_structures)
from crystalembed.training import (PretrainConfig, extract_embeddings,
                                   pretrain, pretrain_losses)

from helpers import (all_unordered_pairs, brute_force_edges, grad_check,
                     one_segment, random_structure, reconstruct_original)

# Frozen benchmark: pretraining corpus covers all 20 synthetic elements;
# the labeled corpus has fixed cell geometry so only atom identity carries
# the label signal.
PRETRAIN_CORPUS = dict(size=48, seed=3)
LABELED_CORPUS = dict(size=64, seed=11)
PRETRAIN_CFG = dict(dim=16, num_layers=2, rbf_count=8, epochs=160,
                    batch_size=16, seed=0)
DOWNSTREAM_CFG = dict(dim=16, num_layers=1, rbf_count=4, epochs=60,
                      batch_size=8, lr=1e-2)


def _pass(n: int, msg: str) -> None:
    print(f"criterion {n}: PASS - {msg}")


@pytest.fixture(scope="module")
def benchmark_table(tmp_path_factory):
    structures = make_pretraining_structures(
        PRETRAIN_CORPUS["size"], seed=PRETRAIN_CORPUS["seed"])
    graphs = [build_periodic_graph(s, 5.0) for s in structures]
    cfg = PretrainConfig(**PRETRAIN_CFG)
    out = tmp_path_factory.mktemp("benchmark_pretrain")
    result = pretrain(graphs, cfg, out)
    return extract_embeddings(result.model, graphs)


def test_criterion_1_periodic_graph_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    edges_checked = 0
    for k in range(50):
        s = random_structure(rng, max_sites=6, skewed=(k % 5 == 4))
        cutoff = float(rng.uniform(2.0, 5.0))
        g = build_periodic_graph(s, cutoff)
        got = Counter((int(i), int(j), tuple(int(x) for x in o))
                      for i, j, o in zip(g.src, g.dst, g.offsets))
        assert got == brute_force_edges(s, cutoff), f"cell {k} differs"
        edges_checked += g.num_edges
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _pass(1, f"50 randomized cells, {edges_checked} edges exact, "
             f"{elapsed:.1f}s")


def test_criterion_2_end_to_end_gradient_check():
    structures = make_pretraining_structures(2, seed=7)
    graphs = [build_periodic_graph(s, 5.0) for s in structures]
    cfg = PretrainConfig(dim=8, num_layers=1, rbf_count=4, batch_size=2,
                         epochs=1)
    model = init_model_params(np.random.default_rng(5), dim=8, num_layers=1,
                              rbf_count=4, temperature=cfg.temperature,
                              class_weights=cfg.class_weights)
    params = model.tensors()
    n_scalars = sum(p.data.size for p in params)

    def loss_fn():
        return pretrain_losses(graphs, model, cfg, view_seeds=(101, 202))[3]

    t0 = time.monotonic()
    err = grad_check(loss_fn, params, floor=1e-3)
    elapsed = time.monotonic() - t0
    assert err < 1e-4
    assert elapsed < 60.0
    _pass(2, f"total-loss gradients on {n_scalars} scalars, "
             f"max rel err {err:.2e}, {elapsed:.1f}s")


def test_criterion_3_analytic_loss_values():
    uniform_nodes = ag.constant(np.full((5, 118), 1.0 / 118.0))
    l_node = float(node_nll(uniform_nodes, np.array([1, 7, 26, 79, 118]), None,
                            one_segment(5)).data)
    assert abs(l_node - math.log(118.0)) < 1e-9

    pairs = np.asarray(all_unordered_pairs(3), dtype=np.int64)
    uniform_adj = ag.constant(np.full((len(pairs), 6), 1.0 / 6.0))
    counts = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
    l_adj = float(adj_weighted_ce(uniform_adj, counts[pairs[:, 0], pairs[:, 1]],
                                  (0.1, 1.0, 1.0, 1.0, 1.0, 1.0),
                                  one_segment(len(pairs))).data)
    assert abs(l_adj - math.log(6.0)) < 1e-9

    for n in (2, 4, 8):
        z = ag.constant(np.tile(np.arange(1.0, 5.0), (2 * n, 1)))
        l_nce = float(info_nce(z, 0.1).data)
        assert abs(l_nce - math.log(2 * n - 1)) < 1e-9
    _pass(3, "ln 118, ln 6, ln(2N-1) for N in {2,4,8}, all within 1e-9")


def test_criterion_4_pretraining_overfits_small_corpus(tmp_path):
    structures = make_pretraining_structures(16, seed=0)
    graphs = [build_periodic_graph(s, 5.0) for s in structures]
    cfg = PretrainConfig(epochs=200, seed=0)
    t0 = time.monotonic()
    result = pretrain(graphs, cfg, tmp_path)
    elapsed = time.monotonic() - t0
    first = result.history[0]["L_total"]
    last = result.history[-1]["L_total"]
    drop = 1.0 - last / first
    assert drop >= 0.90, f"loss fell only {drop:.1%}"
    assert elapsed < 300.0
    _pass(4, f"16 graphs, 200 epochs: loss {first:.1f} -> {last:.1f} "
             f"({drop:.1%} drop), {elapsed:.0f}s")


def test_criterion_5_extracted_embeddings_transfer_contract(
        benchmark_table, tmp_path):
    table = benchmark_table
    present = table.present
    assert present.sum() == 20
    norms = np.linalg.norm(table.vectors[present], axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    assert np.all(table.vectors[~present] == 0.0)
    assert np.all(table.counts[~present] == 0)

    path = tmp_path / "table.csv"
    save_table_csv(table, path)
    loaded = load_table_csv(path)
    assert np.array_equal(loaded.vectors, table.vectors)
    assert np.array_equal(loaded.counts, table.counts)
    _pass(5, "20 present elements unit-norm within 1e-9, absent flagged, "
             "CSV round trip bitwise")


def test_criterion_6_denoising_targets_ignore_augmentation_seed():
    rng = np.random.default_rng(99)
    for _ in range(6):
        s = random_structure(rng, max_sites=5)
        g = build_periodic_graph(s, 4.0)
        ref_numbers = g.atomic_numbers
        ref_classes = multiplicity_targets(g).classes
        for seed in range(12):
            for view in two_views(g, 0.3, 0.3, seed):
                original = reconstruct_original(view)
                assert np.array_equal(original.atomic_numbers, ref_numbers)
                assert np.array_equal(
                    multiplicity_targets(original).classes, ref_classes)
    _pass(6, "reconstruction targets identical across 12 augmentation "
             "seeds on 6 random cells")


def test_criterion_7_label_fraction_sweep_favors_pretraining(benchmark_table):
    labeled = make_labeled_structures(LABELED_CORPUS["size"],
                                      seed=LABELED_CORPUS["seed"])
    cfg = DownstreamConfig(**DOWNSTREAM_CFG)
    t0 = time.monotonic()
    report = label_fraction_sweep(labeled, cfg, benchmark_table,
                                  fractions=(1.0, 0.5, 0.25), n_runs=4)
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    validate_report(report)
    assert sum(len(r["maes"]) for r in report["records"]) == 24
    table_text = render_sweep_table(report)
    assert len(table_text.splitlines()) == 5  # header, rule, 3 fractions

    quarter = next(r for r in report["rows"] if r["fraction"] == 0.25)
    assert quarter["pretrained_wins"] >= 3, \
        f"pretrained won only {quarter['pretrained_wins']}/4 seeds"
    _pass(7, f"24 runs in {elapsed:.0f}s; at 25% labels pretrained won "
             f"{quarter['pretrained_wins']}/4 seeds "
             f"({quarter['improvement_pct']:+.1f}% mean MAE)")


def test_criterion_8_improvement_arithmetic_matches_published_percentages():
    assert abs(improvement_pct(194.02, 188.78) - 2.7) < 0.05
    assert abs(improvement_pct(289.61, 260.63) - 10.0) < 0.05
    _pass(8, "(194.02-188.78)/194.02 -> 2.7%, "
             "(289.61-260.63)/289.61 -> 10.0%, both within 0.05pp")


def test_criterion_9_identical_runs_produce_identical_logs(tmp_path):
    structures = make_pretraining_structures(8, seed=2)
    graphs = [build_periodic_graph(s, 5.0) for s in structures]
    cfg = PretrainConfig(dim=8, num_layers=1, rbf_count=4, epochs=4,
                         batch_size=4, seed=123)

    def run(name):
        out = tmp_path / name
        pretrain(graphs, cfg, out)
        records = [json.loads(line) for line in
                   (out / "log.jsonl").read_text().splitlines()]
        for r in records:
            del r["wall_ms"]  # wall-clock profiling field, not part of the log contract
        canon = "\n".join(json.dumps(r, sort_keys=True) for r in records)
        return canon.encode(), (out / "final.ckpt").read_bytes()

    log_a, ckpt_a = run("a")
    log_b, ckpt_b = run("b")
    assert log_a == log_b
    assert ckpt_a == ckpt_b
    _pass(9, "two identical runs: loss logs and checkpoint bytes "
             "bitwise equal")
