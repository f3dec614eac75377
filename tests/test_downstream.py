"""Supervised harness: featurizers, splits, training, sweep report."""

from dataclasses import replace

import numpy as np
import pytest

from crystalembed import autograd as ag
from crystalembed import downstream
from crystalembed.downstream import (
    DownstreamConfig,
    _batch_mae,
    evaluate_mae,
    improvement_pct,
    init_downstream_model,
    label_fraction_sweep,
    render_sweep_table,
    split_indices,
    summarize_runs,
    train_supervised,
    validate_report,
)
from crystalembed.elements import z_to_symbol
from crystalembed.embeddings import ElementEmbeddingTable
from crystalembed.errors import FeaturizationError, ValidationError
from crystalembed.optim import AdamState, adam_step
from crystalembed.periodic_graph import batch_graphs, build_periodic_graph
from crystalembed.synthetic import make_labeled_structures

from helpers import cubic_structure, supercell

FAST = dict(dim=8, num_layers=1, rbf_count=4, epochs=6, batch_size=8)


def small_table(dim=8, present=(3, 8, 11, 26), seed=0):
    rng = np.random.default_rng(seed)
    vectors = np.zeros((118, dim))
    counts = np.zeros(118, dtype=np.int64)
    for z in present:
        v = rng.normal(size=dim)
        vectors[z - 1] = v / np.linalg.norm(v)
        counts[z - 1] = 1
    return ElementEmbeddingTable(vectors=vectors, counts=counts)


def full_table(dim=8, seed=0):
    return small_table(dim, present=range(1, 119), seed=seed)


def with_a_test_only_element(structures, seed, z=92):
    """structures with the first site of one test-split structure (split
    seed) set to element z, which no other structure holds."""
    assert all(z not in s.atomic_numbers for s in structures)
    _, _, test = split_indices(len(structures), seed)
    out = list(structures)
    s = out[test[0]]
    out[test[0]] = replace(s, atomic_numbers=[z, *s.atomic_numbers[1:]])
    return out


# -- config ------------------------------------------------------------

def test_config_round_trip():
    cfg = DownstreamConfig(mode="pretrained", label_fraction=0.5, seed=3)
    assert DownstreamConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("kwargs", [
    dict(mode="scratch"),
    dict(label_fraction=0.0),
    dict(label_fraction=1.5),
    dict(epochs=0),
    dict(batch_size=0),
    dict(lr=0.0),
    dict(cutoff=-1.0),
    dict(dim=0),
    dict(rbf_count=0),
    dict(adapter_noise=-0.1),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValidationError):
        DownstreamConfig(**kwargs)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        DownstreamConfig.from_dict({"mode": "baseline", "momentum": 0.9})


# -- featurizers -------------------------------------------------------

def test_baseline_featurizer_gathers_lookup_rows():
    cfg = DownstreamConfig(dim=4)
    model = init_downstream_model(cfg, np.random.default_rng(0))
    lookup = model.lookup
    g = build_periodic_graph(
        cubic_structure(4.0, numbers=(11, 26),
                        coords=[[0, 0, 0], [0.5, 0.5, 0.5]]), 5.0)
    h0 = model.features(g)
    assert np.array_equal(h0.data, lookup.data[[10, 25]])


def test_pretrained_mode_requires_table():
    cfg = DownstreamConfig(mode="pretrained", dim=8)
    with pytest.raises(ValidationError):
        init_downstream_model(cfg, np.random.default_rng(0), table=None)


def test_pretrained_mode_rejects_dim_mismatch():
    cfg = DownstreamConfig(mode="pretrained", dim=16)
    with pytest.raises(ValidationError):
        init_downstream_model(cfg, np.random.default_rng(0), small_table(dim=8))


def test_zero_noise_adapter_reproduces_table_rows():
    cfg = DownstreamConfig(mode="pretrained", dim=8, adapter_noise=0.0)
    table = small_table(dim=8)
    model = init_downstream_model(cfg, np.random.default_rng(0), table)
    g = build_periodic_graph(
        cubic_structure(4.0, numbers=(11, 26),
                        coords=[[0, 0, 0], [0.5, 0.5, 0.5]]), 5.0)
    h0 = model.features(g)
    assert np.array_equal(h0.data, table.vectors[[10, 25]])


def test_missing_element_error_names_symbols():
    cfg = DownstreamConfig(mode="pretrained", dim=8)
    table = small_table(dim=8, present=(11,))
    model = init_downstream_model(cfg, np.random.default_rng(0), table)
    g = build_periodic_graph(
        cubic_structure(4.0, numbers=(26, 79),
                        coords=[[0, 0, 0], [0.5, 0.5, 0.5]]), 5.0)
    with pytest.raises(FeaturizationError) as err:
        model.features(g)
    assert "Fe (Z=26)" in str(err.value) and "Au (Z=79)" in str(err.value)


def test_adapter_training_leaves_table_bitwise_unchanged():
    cfg = DownstreamConfig(mode="pretrained", dim=8)
    table = small_table(dim=8, present=(11, 26))
    before = table.vectors.copy()
    model = init_downstream_model(cfg, np.random.default_rng(0), table)
    tensors = [model.adapter_w, model.adapter_b]
    g = build_periodic_graph(
        cubic_structure(4.0, numbers=(11, 26),
                        coords=[[0, 0, 0], [0.5, 0.5, 0.5]]), 5.0)
    opt = AdamState.for_params(tensors, lr=0.1)
    for _ in range(3):
        loss = ag.mean_all(ag.abs_(model.features(g)))
        for p in tensors:
            p.zero_grad()
        loss.backward()
        adam_step(opt, tensors)
    assert np.array_equal(table.vectors, before)


@pytest.mark.parametrize("mode", ["baseline", "pretrained"])
def test_batched_mae_matches_per_graph_predict_loop(mode):
    cfg = DownstreamConfig(mode=mode, dim=8, num_layers=2, rbf_count=4)
    model = init_downstream_model(cfg, np.random.default_rng(4), full_table())
    structures = make_labeled_structures(5, seed=2)
    structures.insert(2, supercell(structures[0], 2))
    graphs = [build_periodic_graph(s, cfg.cutoff) for s in structures]
    assert len({g.num_nodes for g in graphs}) > 1
    labels = np.linspace(-1.0, 2.0, len(graphs))
    params = model.tensors()

    def loop_mae():
        preds = ag.concat([model.predict(batch_graphs([g])) for g in graphs],
                          axis=0)
        target = ag.constant(labels.reshape(-1, 1))
        return ag.mean_all(ag.abs_(ag.sub(preds, target)))

    results = []
    for mae in (lambda: _batch_mae(model, batch_graphs(graphs), labels),
                loop_mae):
        for p in params:
            p.zero_grad()
        loss = mae()
        loss.backward()
        results.append((float(loss.data), [p.grad.copy() for p in params]))
    (got, got_grads), (want, want_grads) = results
    assert abs(got - want) <= 1e-12 * abs(want)
    for g, w in zip(got_grads, want_grads):
        assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)
    assert evaluate_mae(model, batch_graphs(graphs), labels) == got


@pytest.mark.parametrize("mode", ["baseline", "pretrained"])
def test_evaluation_between_forward_and_backward_leaves_gradients(mode):
    cfg = DownstreamConfig(mode=mode, dim=8, num_layers=2, rbf_count=4)
    model = init_downstream_model(cfg, np.random.default_rng(4), full_table())
    graphs = [build_periodic_graph(s, cfg.cutoff)
              for s in make_labeled_structures(6, seed=2)]
    train, held_out = batch_graphs(graphs[:4]), batch_graphs(graphs[4:])
    labels = np.linspace(-1.0, 2.0, len(graphs))
    params = model.tensors()

    def grads(evaluate):
        for p in params:
            p.zero_grad()
        loss = _batch_mae(model, train, labels[:4])
        if evaluate:
            assert evaluate_mae(model, held_out, labels[4:]) > 0.0
            assert all(p.grad is None for p in params)
        loss.backward()
        return [p.grad.copy() for p in params]

    for got, want in zip(grads(True), grads(False)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mode, features", [("baseline", ["lookup"]),
                                            ("pretrained", ["adapter_w", "adapter_b"])])
def test_tensors_list_features_then_layers_then_head(mode, features):
    cfg = DownstreamConfig(mode=mode, dim=8, num_layers=2, rbf_count=4)
    model = init_downstream_model(cfg, np.random.default_rng(4), full_table())
    feat_tensors = [getattr(model, name) for name in features]
    assert [t.name for t in feat_tensors] == [
        f"downstream.{name}" for name in features]
    want = [*feat_tensors,
            *(t for layer in model.layers for t in layer.tensors()),
            model.head_w, model.head_b]
    got = model.tensors()
    assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


# -- splits ------------------------------------------------------------

def test_split_sizes_and_disjointness():
    train, val, test = split_indices(64, seed=0)
    assert (len(train), len(val), len(test)) == (51, 6, 7)
    combined = np.concatenate([train, val, test])
    assert sorted(combined) == list(range(64))


def test_split_deterministic_and_seed_sensitive():
    a = split_indices(40, seed=1)
    b = split_indices(40, seed=1)
    c = split_indices(40, seed=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_split_rejects_tiny_corpus():
    with pytest.raises(ValidationError):
        split_indices(9, seed=0)


def test_fraction_subsets_are_nested():
    train, _, _ = split_indices(40, seed=0)
    half = set(train[:round(0.5 * len(train))].tolist())
    quarter = set(train[:round(0.25 * len(train))].tolist())
    assert quarter < half < set(train.tolist())


# -- single training runs ----------------------------------------------

@pytest.fixture(scope="module")
def labeled():
    return make_labeled_structures(40, seed=5)


def test_unlabeled_structure_rejected():
    s = cubic_structure(4.0, numbers=(11,))
    with pytest.raises(ValidationError):
        train_supervised([s] * 12, DownstreamConfig(**FAST))


def test_vanishing_fraction_rejected(labeled):
    cfg = DownstreamConfig(label_fraction=1e-9, **FAST)
    with pytest.raises(ValidationError):
        train_supervised(labeled, cfg)


def test_training_beats_mean_predictor(labeled):
    cfg = DownstreamConfig(epochs=15, dim=8, num_layers=1, rbf_count=4,
                           batch_size=8, seed=0)
    _, report = train_supervised(labeled, cfg)
    labels = np.array([s.label for s in labeled])
    train, _, test = split_indices(len(labeled), seed=0)
    mean_mae = np.mean(np.abs(labels[test] - labels[train].mean()))
    assert report.maes[0] < mean_mae


def test_training_is_deterministic(labeled):
    cfg = DownstreamConfig(seed=7, **FAST)
    _, a = train_supervised(labeled, cfg)
    _, b = train_supervised(labeled, cfg)
    assert a.to_dict() == b.to_dict()


def test_more_epochs_never_hurt_best_validation(labeled):
    # Same init and per-epoch shuffles, so the longer run's candidate set of
    # snapshots is a superset of the shorter run's.
    graphs = [build_periodic_graph(s, 5.0) for s in labeled]
    labels = np.array([s.label for s in labeled])
    _, val_idx, _ = split_indices(len(labeled), seed=0)
    val_batch = batch_graphs([graphs[i] for i in val_idx])

    def best_val(epochs):
        cfg = DownstreamConfig(dim=8, num_layers=1, rbf_count=4,
                               batch_size=8, epochs=epochs, seed=0)
        model, _ = train_supervised(labeled, cfg)
        return evaluate_mae(model, val_batch, labels[val_idx])

    assert best_val(12) <= best_val(2) + 1e-12


def test_single_run_report_fields(labeled):
    cfg = DownstreamConfig(seed=3, **FAST)
    _, report = train_supervised(labeled, cfg)
    assert report.mode == "baseline"
    assert report.seeds == [3]
    assert report.std is None
    assert report.mean == report.maes[0]
    assert np.isfinite(report.mean)


def test_pretrained_run_checks_every_split_before_its_first_step(
        labeled, monkeypatch):
    steps = []
    monkeypatch.setattr(downstream, "adam_step",
                        lambda state, params: steps.append(params))
    cfg = DownstreamConfig(mode="pretrained", seed=0, **FAST)
    structures = with_a_test_only_element(labeled, cfg.seed)
    table = small_table(dim=8, present=[z for z in range(1, 119) if z != 92])
    with pytest.raises(FeaturizationError,
                       match=r"embedding table: U \(Z=92\)$"):
        train_supervised(structures, cfg, table)
    assert steps == []


def test_pretrained_run_uses_table(labeled):
    cfg = DownstreamConfig(mode="pretrained", seed=0, **FAST)
    table = full_table(dim=8)
    before = table.vectors.copy()
    _, report = train_supervised(labeled, cfg, table)
    assert np.isfinite(report.mean)
    assert np.array_equal(table.vectors, before)


# -- aggregation and report --------------------------------------------

def test_improvement_pct_hand_values():
    assert improvement_pct(194.02, 188.78) == pytest.approx(
        2.700752499742299, abs=1e-12)
    assert improvement_pct(289.61, 260.63) == pytest.approx(
        10.006560546942445, abs=1e-12)
    assert improvement_pct(2.0, 3.0) == -50.0
    with pytest.raises(ValidationError):
        improvement_pct(0.0, 1.0)


def test_summarize_runs_statistics():
    maes = [0.3, 0.4, 0.2, 0.5]
    rep = summarize_runs(8, 0.5, "baseline", [0, 1, 2, 3], maes)
    assert rep.mean == pytest.approx(0.35, abs=1e-15)
    assert rep.std == pytest.approx(0.12909944487358055, abs=1e-15)
    single = summarize_runs(8, 1.0, "baseline", [0], [0.3])
    assert single.std is None
    with pytest.raises(ValidationError):
        summarize_runs(8, 1.0, "baseline", [0, 1], [0.3])


def test_validate_report_catches_schema_violations():
    record = summarize_runs(8, 1.0, "baseline", [0], [0.3]).to_dict()
    good = {"dim": 8, "n_runs": 1, "fractions": [1.0], "records": [record],
            "rows": [{"fraction": 1.0, "baseline": record,
                      "pretrained": record, "improvement_pct": 0.0,
                      "pretrained_wins": 0}]}
    validate_report(good)
    with pytest.raises(ValidationError):
        validate_report({k: v for k, v in good.items() if k != "rows"})
    bad_mode = dict(record, mode="scratch")
    with pytest.raises(ValidationError):
        validate_report(dict(good, records=[bad_mode]))
    extra_key = dict(record, extra=1)
    with pytest.raises(ValidationError):
        validate_report(dict(good, records=[extra_key]))
    with pytest.raises(ValidationError):
        validate_report(dict(good, rows=[{"fraction": 1.0}]))


# -- sweep --------------------------------------------------------------

def test_sweep_pairs_seeds_and_reports(labeled):
    cfg = DownstreamConfig(**FAST)
    table = full_table(dim=8)
    report = label_fraction_sweep(labeled, cfg, table,
                                  fractions=(1.0, 0.5), n_runs=2)
    validate_report(report)
    assert report["fractions"] == [1.0, 0.5]
    assert len(report["records"]) == 4
    for row in report["rows"]:
        base, pre = row["baseline"], row["pretrained"]
        assert base["seeds"] == pre["seeds"]
        assert base["improvement_pct"] is None
        assert pre["improvement_pct"] == pytest.approx(
            improvement_pct(base["mean"], pre["mean"]), abs=1e-12)
        wins = sum(p < b for p, b in zip(pre["maes"], base["maes"]))
        assert row["pretrained_wins"] == wins


def test_sweep_rejects_zero_runs(labeled):
    with pytest.raises(ValidationError):
        label_fraction_sweep(labeled, DownstreamConfig(**FAST),
                             full_table(dim=8), n_runs=0)


def test_sweep_rejects_an_empty_fraction_list(labeled):
    with pytest.raises(ValidationError, match="fraction"):
        label_fraction_sweep(labeled, DownstreamConfig(**FAST),
                             full_table(dim=8), fractions=())


def test_sweep_builds_each_structure_once(labeled, monkeypatch):
    built = []

    def counted(s, cutoff):
        built.append(s.id)
        return build_periodic_graph(s, cutoff)

    monkeypatch.setattr(downstream, "build_periodic_graph", counted)
    label_fraction_sweep(labeled, DownstreamConfig(**FAST), full_table(dim=8),
                         fractions=(1.0, 0.5), n_runs=2)
    assert sorted(built) == sorted(s.id for s in labeled)


@pytest.mark.parametrize("mode", ["baseline", "pretrained"])
def test_run_on_given_graphs_equals_run_on_structures(labeled, mode):
    cfg = DownstreamConfig(mode=mode, label_fraction=0.5, seed=2, **FAST)
    graphs = [build_periodic_graph(s, cfg.cutoff) for s in labeled]
    table = full_table(dim=8)
    _, want = train_supervised(labeled, cfg, table)
    _, got = train_supervised(labeled, cfg, table, graphs=graphs)
    assert got.to_dict() == want.to_dict()


def test_given_graphs_must_match_the_structures(labeled):
    cfg = DownstreamConfig(**FAST)
    graphs = [build_periodic_graph(s, 4.0) for s in labeled]
    with pytest.raises(ValidationError, match="cutoff 5.0"):
        train_supervised(labeled, cfg, graphs=graphs)
    with pytest.raises(ValidationError, match="one graph per structure"):
        train_supervised(labeled, replace(cfg, cutoff=4.0), graphs=graphs[1:])


@pytest.mark.parametrize("fractions", [(1.0, float("nan")), (1.0, 1e-9)])
def test_sweep_checks_every_run_before_training_any(labeled, monkeypatch,
                                                    fractions):
    runs = []
    monkeypatch.setattr(downstream, "train_supervised",
                        lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ValidationError):
        label_fraction_sweep(labeled, DownstreamConfig(**FAST),
                             full_table(dim=8), fractions=fractions, n_runs=2)
    assert runs == []



@pytest.mark.parametrize("table, dim, error, message", [
    (small_table(dim=8, present=(3,)), 8, FeaturizationError,
     "elements absent from embedding table: "),
    (small_table(dim=8, present=range(1, 119)), 16, ValidationError,
     "embedding table dim 8 != configured dim 16"),
], ids=["missing-elements", "dim-mismatch"])
def test_sweep_checks_its_table_before_any_run(labeled, monkeypatch, table,
                                               dim, error, message):
    runs = []
    monkeypatch.setattr(downstream, "train_supervised",
                        lambda *args, **kwargs: runs.append(args))
    with pytest.raises(error, match=message):
        label_fraction_sweep(labeled, DownstreamConfig(**{**FAST, "dim": dim}),
                             table, fractions=(1.0, 0.5), n_runs=2)
    assert runs == []


def test_sweep_table_check_names_every_missing_element(labeled):
    present = sorted({int(z) for s in labeled for z in s.atomic_numbers})
    table = small_table(dim=8, present=present[1:-1])
    with pytest.raises(FeaturizationError) as err:
        label_fraction_sweep(labeled, DownstreamConfig(**FAST), table, n_runs=1)
    names = str(err.value).split(": ", 1)[1].split(", ")
    assert names == [f"{z_to_symbol(z)} (Z={z})" for z in (present[0], present[-1])]

def test_render_table_layout():
    record = summarize_runs(8, 1.0, "baseline", [0, 1], [0.3, 0.4]).to_dict()
    pre = summarize_runs(8, 1.0, "pretrained", [0, 1], [0.2, 0.3]).to_dict()
    pre["improvement_pct"] = improvement_pct(record["mean"], pre["mean"])
    report = {"dim": 8, "n_runs": 2, "fractions": [1.0],
              "records": [record, pre],
              "rows": [{"fraction": 1.0, "baseline": record,
                        "pretrained": pre,
                        "improvement_pct": pre["improvement_pct"],
                        "pretrained_wins": 2}]}
    text = render_sweep_table(report)
    lines = text.splitlines()
    for token in ("Dim", "%Labeled", "Baseline", "Pretrained", "Improv.%"):
        assert token in lines[0]
    assert len(lines) == 3
    assert "100%" in lines[2]
    assert "±" in lines[2]
    assert "+28.57%" in lines[2]
