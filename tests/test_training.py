import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from crystalembed import autograd as ag
from crystalembed import training
from crystalembed.augmentation import batch_views, two_views
from crystalembed import checkpoint
from crystalembed.checkpoint import load_checkpoint, save_checkpoint
from crystalembed.contrastive import info_nce, project
from crystalembed.decoders import (
    adj_weighted_ce,
    adjacency_probs,
    node_nll,
    node_probs,
)
from crystalembed.encoder import encode_graph
from crystalembed.errors import ParseError, ValidationError
from crystalembed.model import init_model_params
from crystalembed.optim import AdamState
from crystalembed.periodic_graph import (batch_graphs, build_periodic_graph,
                                         multiplicity_targets)
from crystalembed.synthetic import make_pretraining_structures
from crystalembed.training import (
    PretrainConfig,
    extract_embeddings,
    load_state,
    pretrain,
    pretrain_losses,
    pretrain_step,
    save_state,
)

from helpers import (all_unordered_pairs, cubic_structure,
                     extract_one_graph_at_a_time, one_segment, rocksalt_structure,
                     supercell, view_graph)

FAST = dict(dim=8, num_layers=1, rbf_count=4, cutoff=5.0, batch_size=4)


def fast_cfg(**overrides):
    kwargs = {**FAST, "epochs": 3, "seed": 7, **overrides}
    return PretrainConfig(**kwargs)


def fast_model(cfg, seed=0):
    return init_model_params(
        np.random.default_rng(seed), cfg.dim, cfg.num_layers, cfg.rbf_count,
        cfg.cutoff, cfg.temperature, cfg.class_weights,
    )


@pytest.fixture(scope="module")
def graphs():
    structs = make_pretraining_structures(8, seed=1)
    return [build_periodic_graph(s, 5.0) for s in structs]


class TestConfig:
    def test_defaults_match_published_recipe(self):
        cfg = PretrainConfig()
        assert (cfg.alpha, cfg.beta, cfg.gamma) == (225.0, 4.0, 3.0)
        assert cfg.lr == 3e-2
        assert cfg.batch_size == 128
        assert cfg.epochs == 100

    def test_round_trip(self):
        cfg = fast_cfg(alpha=1.5, class_weights=(0.2, 1, 1, 1, 1, 2))
        assert PretrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejections(self):
        with pytest.raises(ValidationError):
            fast_cfg(alpha=-1.0)
        with pytest.raises(ValidationError):
            fast_cfg(batch_size=1)
        with pytest.raises(ValidationError):
            fast_cfg(epochs=0)
        with pytest.raises(ValidationError):
            fast_cfg(mask_ratio=1.0)
        with pytest.raises(ValidationError):
            fast_cfg(node_loss_scope="some")
        with pytest.raises(ValidationError):
            fast_cfg(node_loss_scope="masked", mask_ratio=0.0)
        with pytest.raises(ValidationError):
            PretrainConfig.from_dict({"dim": 8, "bogus": 1})

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("temperature", float("inf")),
        ("gamma", float("-inf")), ("class_weights", [0.1, 1, float("nan"), 1, 1, 1])])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            PretrainConfig(**{field: value})


class TestPretrainStep:
    def test_zero_weights_leave_params_unchanged(self, graphs):
        cfg = fast_cfg(alpha=0.0, beta=0.0, gamma=0.0)
        model = fast_model(cfg)
        opt = AdamState.for_params(model.tensors(), lr=cfg.lr)
        before = {n: t.data.copy() for n, t in model.named().items()}
        losses = pretrain_step(graphs[:2], model, opt, cfg, [0, 1])
        assert losses["L_total"] == 0.0
        for n, t in model.named().items():
            assert np.array_equal(t.data, before[n]), n

    def test_total_is_weighted_sum(self, graphs):
        cfg = fast_cfg()
        model = fast_model(cfg)
        ln, la, li, total = pretrain_losses(graphs[:3], model, cfg, [5, 6, 7])
        expected = 225.0 * ln.data + 4.0 * la.data + 3.0 * li.data
        assert abs(total.data - expected) < 1e-12

    def test_deterministic_given_seeds(self, graphs):
        cfg = fast_cfg()

        def run():
            model = fast_model(cfg, seed=3)
            opt = AdamState.for_params(model.tensors(), lr=cfg.lr)
            return pretrain_step(graphs[:4], model, opt, cfg, [9, 8, 7, 6])

        assert run() == run()

    def test_step_memory_is_bounded_on_large_cells(self):
        # backward frees the forward tape as it goes
        held, peak, model = large_cell_step_memory()
        assert peak < 170e6, peak
        assert held < 5e6, held  # the losses are still referenced here
        assert all(p.grad is not None for p in model.tensors())

    def test_encoder_layers_keep_four_edge_arrays(self):
        # each layer is one tape entry keeping one (E, d) array, the gate,
        # and two (N, 2d) node-row arrays, where its 17 unfused ops kept
        # about 9.6 KB per edge: a ~27 MB peak against 132 MB
        _, peak, _ = large_cell_step_memory()
        assert peak < 70e6, peak

    def test_encoder_layers_keep_node_rows_not_edge_preactivations(self):
        # held after the forward: 29.3 MB with each layer keeping its (N, 2d)
        # node rows, 39.4 MB when it kept its (E, 2d) pre-activation instead
        held, _, _ = large_cell_step_memory(after_forward=True)
        assert held < 34e6, held

    def test_step_peak_is_the_layer_floor(self):
        # each edge array is dropped after its last read and each MLP half's
        # gradient scattered as soon as it is made: a 32.4 MB peak, against
        # 36.0 MB when the forward held four (E, 2d) arrays at once
        _, peak, _ = large_cell_step_memory()
        assert peak < 34e6, peak

    def test_encoder_layers_keep_only_the_gate_across_the_step(self):
        # held after the forward: 23.0 MB with each layer keeping one (E, d)
        # array, the gate, and its rule remaking msg; 29.3 MB keeping both
        held, _, _ = large_cell_step_memory(after_forward=True)
        assert held < 26e6, held

    def test_step_peak_falls_with_msg_remade_in_the_rule(self):
        # 26.9 MB with msg remade in the rule, 32.4 MB when the layer kept it
        _, peak, _ = large_cell_step_memory()
        assert peak < 29.5e6, peak

    def test_forward_layer_holds_at_most_three_edge_arrays(self):
        # a forward-only encode of the pair's batch peaks at 3.48 (E, 2d)
        # arrays: three, and the smaller arrays held alongside them (the
        # (E, r) edge features, silu's sign mask, the node rows); 4.47 when
        # a layer's first gather outlived its adds
        cfg, graphs = large_cell_pair()
        model = fast_model(cfg)
        batch = batch_graphs(graphs)
        edge_array = batch.graph.num_edges * 2 * cfg.dim * 8
        with ag.no_grad():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                encode_graph(model.encoder, batch.graph)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - before < 3.75 * edge_array, (peak - before) / edge_array

    def test_encoder_peak_falls_with_edge_tiles(self):
        # encode on the pair's four views plus the backward of sum_all: a
        # 10.5 MB peak with each layer in edge tiles, 26.2 MB when each layer
        # kept its (E, d) gate and built (E, 2d) arrays
        cfg, graphs = large_cell_pair()
        model = fast_model(cfg)
        batch = batch_views([view for g, seed in zip(graphs, [0, 1]) for view in
                             two_views(g, cfg.mask_ratio, cfg.drop_ratio, seed)])
        tracemalloc.start()
        try:
            ag.sum_all(encode_graph(model.encoder, batch.graph,
                                    batch.masked_nodes)).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14e6, peak

    def test_batch_of_one_rejected(self, graphs):
        cfg = fast_cfg()
        model = fast_model(cfg)
        opt = AdamState.for_params(model.tensors(), lr=cfg.lr)
        with pytest.raises(ValidationError):
            pretrain_step(graphs[:1], model, opt, cfg, [0])

    def test_constants_get_no_gradient(self, graphs, monkeypatch):
        # Skipping constants must leave every parameter gradient bitwise as
        # it is when each constant is put on the tape like a parameter.
        cfg = fast_cfg(mask_ratio=0.3, drop_ratio=0.2)
        model = fast_model(cfg, seed=5)
        params = model.tensors()

        def step(requires_grad):
            made = []

            def constant(data):
                made.append(ag.Tensor(data, requires_grad=requires_grad))
                return made[-1]

            monkeypatch.setattr(ag, "constant", constant)
            for p in params:
                p.zero_grad()
            pretrain_losses(graphs[:4], model, cfg, [3, 4, 5, 6])[3].backward()
            return made, [p.grad.copy() for p in params]

        skipped, grads = step(requires_grad=False)
        kept, want = step(requires_grad=True)
        assert skipped and all(c.grad is None for c in skipped)
        assert all(c.grad is not None for c in kept)
        for p, g, w in zip(params, grads, want):
            assert g.tobytes() == w.tobytes(), p.name

    def test_info_nce_reads_the_projector_temperature(self, graphs):
        model = init_model_params(np.random.default_rng(0), 8, 1, 4, 5.0,
                                  temperature=0.5)
        nce = [pretrain_losses(graphs[:3], model, fast_cfg(temperature=t),
                               [5, 6, 7])[2].data for t in (0.1, 0.5)]
        assert nce[0] == nce[1]

    def test_masked_scope_runs(self, graphs):
        cfg = fast_cfg(node_loss_scope="masked", mask_ratio=0.5)
        model = fast_model(cfg)
        opt = AdamState.for_params(model.tensors(), lr=cfg.lr)
        losses = pretrain_step(graphs[:2], model, opt, cfg, [0, 1])
        assert np.isfinite(losses["L_total"])


def large_cell_pair():
    """The dim-64 config and the two 4x4x4 supercells (N=128, 1,792 edges
    each) that the large-cell memory tests run on."""
    cfg = PretrainConfig(dim=64, num_layers=2, rbf_count=8, cutoff=5.0)
    graphs = [build_periodic_graph(supercell(s, 4), 5.0)
              for s in make_pretraining_structures(2, seed=3)]
    assert [g.num_nodes for g in graphs] == [128, 128]
    return cfg, graphs


def large_cell_step_memory(after_forward=False):
    """tracemalloc's held bytes, read after the backward or, if after_forward,
    after pretrain_losses, and peak bytes over pretrain_losses plus backward
    on two 4x4x4 supercells (N=128, 1,792 edges each) at dim 64, and the
    model they ran on."""
    cfg, graphs = large_cell_pair()
    model = fast_model(cfg)
    tracemalloc.start()
    try:
        losses = pretrain_losses(graphs, model, cfg, [0, 1])
        forward_held = tracemalloc.get_traced_memory()[0]
        losses[3].backward()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return forward_held if after_forward else held, peak, model


def per_view_losses(graphs, model, cfg, view_seeds):
    """Reference for pretrain_losses: every view encoded, decoded and
    projected on its own, per-view terms averaged in a Python loop."""
    node, adj, zs = [], [], []
    for g, seed in zip(graphs, view_seeds):
        pairs = np.asarray(all_unordered_pairs(g.num_nodes))
        classes = multiplicity_targets(g).classes[pairs[:, 0], pairs[:, 1]]
        for view in two_views(g, cfg.mask_ratio, cfg.drop_ratio, seed):
            h = encode_graph(model.encoder, view_graph(view), view.masked_nodes)
            scope = view.masked_nodes if cfg.node_loss_scope == "masked" else None
            segments = one_segment(g.num_nodes)
            node.append(node_nll(node_probs(h, model.node_decoder),
                                 g.atomic_numbers, scope, segments))
            adj.append(adj_weighted_ce(
                adjacency_probs(h, model.adj_decoder, pairs, segments), classes,
                model.adj_decoder.class_weights, one_segment(len(pairs))))
            zs.append(project(h, model.projector, segments))

    def mean(terms):
        total = terms[0]
        for t in terms[1:]:
            total = ag.add(total, t)
        return ag.scale(total, 1.0 / len(terms))

    l_node, l_adj = mean(node), mean(adj)
    l_nce = info_nce(ag.concat(zs, axis=0), cfg.temperature)
    total = ag.add(ag.add(ag.scale(l_node, cfg.alpha), ag.scale(l_adj, cfg.beta)),
                   ag.scale(l_nce, cfg.gamma))
    return l_node, l_adj, l_nce, total


# One pretrain_losses step on the mixed batch below, recorded when gathers
# scatter-added their gradients with np.add.at and the sigmoid split its
# input into two masked branches: the four losses (L_node, L_adj, L_infonce,
# L_total), then per parameter (name, |grad|, r . grad) with
# r = default_rng(position).normal(size=grad.size). The losses were
# re-recorded when the encoder's first layers moved onto node rows, which
# reassociates their sums (L_adj and L_infonce moved by under 1e-15).
RECORDED_STEP = {
    "all": (
        [4.731368687626803, 1.789306884022291, 1.6389855530542168, 1076.6321389112825],
        [
            ('encoder.atom_table', 15.105008807091467, -12.794529704997014),
            ('encoder.mask_vector', 13.06201304311491, 2.0878918163535003),
            ('encoder.layer0.msg_w1', 117.11051197054145, -159.23337097749157),
            ('encoder.layer0.msg_b1', 42.52058007945987, -47.87207835075537),
            ('encoder.layer0.msg_w2', 74.39448599754074, 14.637114638506809),
            ('encoder.layer0.msg_b2', 84.22062737949953, -43.68161633927235),
            ('encoder.layer0.gate_w1', 24.50569153269657, 6.169098851572818),
            ('encoder.layer0.gate_b1', 8.194125930778604, -8.728028587750373),
            ('encoder.layer0.gate_w2', 10.319289927894875, -3.4378093208702962),
            ('encoder.layer0.gate_b2', 11.41331346911613, 20.8253890837696),
            ('decoder.node.w', 85.50179989983373, 102.17766249373845),
            ('decoder.node.b', 103.11942795877107, 27.69275506021012),
            ('decoder.adj.w_b', 0.747111487312001, -1.0206587455576788),
            ('decoder.adj.b_b', 0.8368685610831672, 1.5453806109964674),
            ('decoder.adj.w_a', 0.27181202955764816, -0.31052882739081683),
            ('decoder.adj.b_a', 1.7158189916507132, -0.0215415574444983),
            ('projector.w1', 7.170570496473258, -5.908539180415112),
            ('projector.b1', 1.5944639771905513, -1.52501795699094),
            ('projector.w2', 2.5456347406548705, -2.6279976942694634),
            ('projector.b2', 2.073058517273211, 1.477980929166839),
        ]),
    "masked": (
        [4.682262240069858, 1.789306884022291, 1.6389855530542168, 1065.5831882109699],
        [
            ('encoder.atom_table', 11.533067350622662, 2.6317844171866014),
            ('encoder.mask_vector', 9.722184212034206, 0.35121966572197455),
            ('encoder.layer0.msg_w1', 95.5572984429055, -42.66547382083654),
            ('encoder.layer0.msg_b1', 28.016876657568513, -34.81194162169481),
            ('encoder.layer0.msg_w2', 78.14699386571326, -4.826031473764996),
            ('encoder.layer0.msg_b2', 49.26868863395338, -33.90500561768744),
            ('encoder.layer0.gate_w1', 21.074764543075364, -6.6681788347644435),
            ('encoder.layer0.gate_b1', 5.789730563874346, -5.304824873146329),
            ('encoder.layer0.gate_w2', 9.792280172590702, 3.969188434374323),
            ('encoder.layer0.gate_b2', 8.769167662202225, 14.030098002353503),
            ('decoder.node.w', 105.56008124428227, 117.11297540919853),
            ('decoder.node.b', 105.7522087380559, 12.352631353754472),
            ('decoder.adj.w_b', 0.747111487312001, -1.0206587455576788),
            ('decoder.adj.b_b', 0.8368685610831672, 1.5453806109964674),
            ('decoder.adj.w_a', 0.27181202955764816, -0.31052882739081683),
            ('decoder.adj.b_a', 1.7158189916507132, -0.0215415574444983),
            ('projector.w1', 7.170570496473258, -5.908539180415112),
            ('projector.b1', 1.5944639771905513, -1.52501795699094),
            ('projector.w2', 2.5456347406548705, -2.6279976942694634),
            ('projector.b2', 2.073058517273211, 1.477980929166839),
        ]),
}


class TestBatchedLossesMatchPerViewLoop:
    @pytest.fixture(scope="class")
    def mixed(self):
        # per-view weights only matter when views differ in size
        cells = make_pretraining_structures(3, seed=4)
        structures = cells[:2] + [supercell(cells[2], 2)] + cells[:1]
        return [build_periodic_graph(s, 5.0) for s in structures]

    @pytest.mark.parametrize("scope", ["all", "masked"])
    def test_losses_and_gradients(self, mixed, scope):
        assert sorted({g.num_nodes for g in mixed}) == [2, 16]
        cfg = fast_cfg(node_loss_scope=scope, mask_ratio=0.3, drop_ratio=0.2)
        model = fast_model(cfg, seed=2)
        params = model.tensors()
        seeds = [11, 12, 13, 14]
        results = []
        for build in (pretrain_losses, per_view_losses):
            for p in params:
                p.zero_grad()
            losses = build(mixed, model, cfg, seeds)
            losses[3].backward()
            results.append(([float(t.data) for t in losses],
                            [p.grad.copy() for p in params]))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        for p, g, w in zip(params, got_grads, want_grads):
            err = np.linalg.norm(g - w)
            assert err <= 1e-12 * np.linalg.norm(w), (p.name, err)

    @pytest.mark.parametrize("scope", ["all", "masked"])
    def test_views_of_2_16_and_54_nodes(self, scope):
        # one dense adjacency block per view size, against one per view
        cells = make_pretraining_structures(3, seed=4)
        structures = [cells[0], supercell(cells[1], 2), supercell(cells[2], 3)]
        graphs = [build_periodic_graph(s, 5.0) for s in structures]
        assert [g.num_nodes for g in graphs] == [2, 16, 54]
        cfg = fast_cfg(node_loss_scope=scope, mask_ratio=0.3, drop_ratio=0.2)
        model = fast_model(cfg, seed=3)
        results = []
        for build in (pretrain_losses, per_view_losses):
            for p in model.tensors():
                p.zero_grad()
            losses = build(graphs, model, cfg, [21, 22, 23])
            losses[3].backward()
            results.append(([float(t.data) for t in losses],
                            [p.grad.copy() for p in model.tensors()]))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        for p, g, w in zip(model.tensors(), got_grads, want_grads):
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w), p.name

    @pytest.mark.parametrize("scope", ["all", "masked"])
    def test_first_step_matches_recorded(self, mixed, scope):
        # losses bitwise; a scatter-add onto a nonzero gradient may reassociate
        cfg = fast_cfg(node_loss_scope=scope, mask_ratio=0.3, drop_ratio=0.2)
        model = fast_model(cfg, seed=2)
        losses = pretrain_losses(mixed, model, cfg, [11, 12, 13, 14])
        losses[3].backward()
        want_losses, want_grads = RECORDED_STEP[scope]
        assert [float(t.data).hex() for t in losses] == [x.hex() for x in want_losses]
        assert [p.name for p in model.tensors()] == [w[0] for w in want_grads]
        for i, (p, (name, norm, proj)) in enumerate(zip(model.tensors(), want_grads)):
            g = p.grad.ravel()
            r = np.random.default_rng(i).normal(size=g.size)
            assert abs(np.linalg.norm(g) - norm) <= 1e-12 * norm, name
            assert abs(r @ g - proj) <= 1e-12 * norm * np.linalg.norm(r), name


class TestPretrain:
    def test_single_batch_single_epoch_is_one_step(self, graphs, tmp_path):
        cfg = fast_cfg(epochs=1, batch_size=64)
        res = pretrain(graphs, cfg, tmp_path / "run")
        assert res.opt.step == 1

    def test_log_and_history_shapes(self, graphs, tmp_path):
        cfg = fast_cfg(epochs=3)
        res = pretrain(graphs, cfg, tmp_path / "run")
        lines = [json.loads(x) for x in open(res.log_path)]
        assert [rec["epoch"] for rec in lines] == [1, 2, 3]
        for rec in lines:
            assert set(rec) == {"epoch", "L_node", "L_adj", "L_infonce",
                                "L_total", "wall_ms"}
        assert all("wall_ms" not in rec for rec in res.history)
        assert len(res.history) == 3

    def test_loss_decreases_on_tiny_corpus(self, graphs, tmp_path):
        cfg = fast_cfg(epochs=10)
        res = pretrain(graphs, cfg, tmp_path / "run")
        assert res.history[-1]["L_total"] < res.history[0]["L_total"]

    def test_checkpoints_round_trip(self, graphs, tmp_path):
        cfg = fast_cfg()
        res = pretrain(graphs, cfg, tmp_path / "run")
        model, opt, cfg2, epoch, history = load_state(res.final_path)
        assert epoch == cfg.epochs
        assert cfg2 == cfg
        assert history == res.history
        assert opt.step == res.opt.step
        for name, t in res.model.named().items():
            assert np.array_equal(model.named()[name].data, t.data)
            assert np.array_equal(opt.m[name], res.opt.m[name])

    def test_resume_reproduces_uninterrupted_run(self, graphs, tmp_path):
        full = pretrain(graphs, fast_cfg(epochs=6), tmp_path / "full")
        part = pretrain(graphs, fast_cfg(epochs=3), tmp_path / "part")
        resumed = pretrain(graphs, fast_cfg(epochs=6), tmp_path / "resumed",
                           resume_from=part.final_path)
        assert resumed.history == full.history
        assert (open(resumed.final_path, "rb").read()
                == open(full.final_path, "rb").read())

    def test_resume_rejects_changed_config(self, graphs, tmp_path):
        part = pretrain(graphs, fast_cfg(epochs=2), tmp_path / "part")
        with pytest.raises(ValidationError):
            pretrain(graphs, fast_cfg(epochs=4, lr=1e-3), tmp_path / "bad",
                     resume_from=part.final_path)

    def test_two_runs_identical_logs(self, graphs, tmp_path):
        cfg = fast_cfg(epochs=4)
        a = pretrain(graphs, cfg, tmp_path / "a")
        b = pretrain(graphs, cfg, tmp_path / "b")

        def stripped(path):
            recs = [json.loads(x) for x in open(path)]
            for rec in recs:
                rec.pop("wall_ms")
            return recs

        assert stripped(a.log_path) == stripped(b.log_path)
        assert (open(a.final_path, "rb").read()
                == open(b.final_path, "rb").read())

    def test_empty_and_singleton_dataset_rejected(self, graphs, tmp_path):
        with pytest.raises(ValidationError):
            pretrain([], fast_cfg(), tmp_path / "x")
        with pytest.raises(ValidationError):
            pretrain(graphs[:1], fast_cfg(), tmp_path / "y")

    @pytest.mark.parametrize("cutoff", [6.0, 4.0])
    def test_graphs_at_another_cutoff_rejected_before_any_output(self, tmp_path,
                                                                 cutoff):
        # 6.0 used to fail at the first step, 4.0 to train and save a config
        # naming a cutoff its graphs were not built at
        graphs = [build_periodic_graph(s, cutoff)
                  for s in make_pretraining_structures(4, seed=1)]
        with pytest.raises(ValidationError, match="built at cutoff 5.0"):
            pretrain(graphs, fast_cfg(), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_trailing_singleton_folded_into_last_batch(self, graphs, tmp_path):
        # 5 graphs with batch 2 -> batches of 2, 2+1
        cfg = fast_cfg(epochs=1, batch_size=2)
        res = pretrain(graphs[:5], cfg, tmp_path / "run")
        assert res.opt.step == 2


class TestPairTargetsOncePerGraph:
    @pytest.fixture(scope="class")
    def mixed(self):
        cells = make_pretraining_structures(3, seed=4)
        return [cells[0], supercell(cells[1], 2), supercell(cells[2], 3)]

    def test_upper_triangle_of_the_targets_kept_as_int8(self, mixed):
        for s in mixed:
            g = build_periodic_graph(s, 5.0)
            n = g.num_nodes
            got = training.pair_targets(g)
            assert got.dtype == np.int8 and got.shape == (n * (n + 1) // 2,)
            want = multiplicity_targets(g).classes[np.triu_indices(n)]
            assert np.array_equal(got, want)
            assert training.pair_targets(g) is got

    def test_batch_pairs_are_each_views_upper_triangle(self, mixed):
        graphs = [build_periodic_graph(s, 5.0) for s in mixed]
        batch = batch_views([v for k, g in enumerate(graphs)
                             for v in two_views(g, 0.3, 0.2, k)])
        want = np.concatenate([
            np.column_stack(np.triu_indices(hi - lo)) + lo
            for lo, hi in zip(batch.node_offsets[:-1], batch.node_offsets[1:])])
        got = training._view_pairs(batch)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_targets_made_once_per_graph_across_epochs(self, tmp_path,
                                                       monkeypatch):
        graphs = [build_periodic_graph(s, 5.0)
                  for s in make_pretraining_structures(8, seed=1)]
        made = []

        def counted(g):
            made.append(id(g))
            return multiplicity_targets(g)

        monkeypatch.setattr(training, "multiplicity_targets", counted)
        pretrain(graphs, fast_cfg(epochs=3), tmp_path / "run")
        assert sorted(made) == sorted(id(g) for g in graphs)
        pretrain(graphs, fast_cfg(epochs=2), tmp_path / "again")
        assert len(made) == len(graphs)

    def test_cached_targets_hold_one_byte_per_pair(self):
        # a 6x6x6 supercell: N=432, 93,528 pairs i <= j
        g = build_periodic_graph(
            supercell(make_pretraining_structures(2, seed=3)[0], 6), 5.0)
        assert g.num_nodes == 432
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        tracemalloc.start()
        try:
            training.pair_targets(g)
            snapshot = tracemalloc.take_snapshot().filter_traces(arrays)
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in snapshot.statistics("filename"))
        assert held <= 93_528, held

    def test_pretrain_and_resume_keep_checkpoint_bytes(self, tmp_path):
        # SHA-256 of the checkpoints the per-parameter Adam and per-step pair
        # targets wrote; buckets and kept targets must not move a byte
        graphs = [build_periodic_graph(s, 5.0)
                  for s in make_pretraining_structures(8, seed=1)]
        part = pretrain(graphs, fast_cfg(epochs=2), tmp_path / "part")
        resumed = pretrain(graphs, fast_cfg(epochs=4), tmp_path / "resumed",
                           resume_from=part.final_path)
        digest = {path: hashlib.sha256(open(path, "rb").read()).hexdigest()
                  for path in (part.final_path, resumed.final_path)}
        assert list(digest.values()) == [
            "8d3994799ac8ec514467fdfbfe78d87d48c695d80e102bc651477eabf1a9c449",
            "d4137524f2dbbc82432930ab6462301e21830db76fcd4838329a3d100b2d5537"]


class TestSaveLoadState:
    def test_named_keeps_the_checkpoint_array_order(self):
        # the order of the checkpoint's arrays: a reorder changes its bytes
        model = init_model_params(np.random.default_rng(0), dim=4,
                                  num_layers=2, rbf_count=2)
        layer = ["msg_w1", "msg_b1", "msg_w2", "msg_b2",
                 "gate_w1", "gate_b1", "gate_w2", "gate_b2"]
        assert list(model.named()) == [
            "encoder.atom_table", "encoder.mask_vector",
            *(f"encoder.layer{ell}.{name}" for ell in (0, 1) for name in layer),
            "decoder.node.w", "decoder.node.b",
            "decoder.adj.w_b", "decoder.adj.b_b", "decoder.adj.w_a",
            "decoder.adj.b_a",
            "projector.w1", "projector.b1", "projector.w2", "projector.b2",
        ]

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not json\n\x00\x01")
        with pytest.raises(ParseError):
            load_state(path)

    def test_truncated_body_rejected(self, graphs, tmp_path):
        cfg = fast_cfg(epochs=1)
        res = pretrain(graphs, cfg, tmp_path / "run")
        raw = open(res.final_path, "rb").read()
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(raw[:-16])
        with pytest.raises(ParseError):
            load_state(clipped)

    def test_missing_array_rejected(self, tmp_path, graphs):
        cfg = fast_cfg(epochs=1)
        model = fast_model(cfg)
        opt = AdamState.for_params(model.tensors(), lr=cfg.lr)
        path = tmp_path / "s.ckpt"
        save_state(path, model, opt, cfg, 1, [])
        ck = load_checkpoint(path)
        assert "encoder.atom_table" in ck.arrays

    @staticmethod
    def _saved(tmp_path):
        """A checkpoint of two arrays at tmp_path / "s.ckpt", and its bytes."""
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, {"a": np.arange(3.0), "b": np.ones((2, 2))},
                        {}, 1, [], {})
        return path, path.read_bytes()

    def test_refused_save_keeps_the_previous_file(self, tmp_path):
        path, before = self._saved(tmp_path)
        with pytest.raises(ValidationError, match="non-finite"):
            save_checkpoint(path, {"a": np.arange(3.0),
                                   "b": np.array([[1.0, 2.0], [3.0, np.nan]])},
                            {}, 2, [], {})
        assert path.read_bytes() == before
        assert np.array_equal(load_checkpoint(path).arrays["b"], np.ones((2, 2)))
        assert [p.name for p in tmp_path.iterdir()] == ["s.ckpt"]

    def test_interrupted_save_keeps_the_previous_file(self, tmp_path,
                                                      monkeypatch):
        path, before = self._saved(tmp_path)

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(checkpoint.os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, {"a": np.zeros(3)}, {}, 2, [], {})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.ckpt"]

    @staticmethod
    def _edited_header(tmp_path, edit, **overrides):
        """A saved untrained state (epoch 0, empty history) of fast_cfg(epochs=1,
        **overrides) whose JSON header line went through edit(header)."""
        cfg = fast_cfg(epochs=1, **overrides)
        model = fast_model(cfg)
        path = tmp_path / "s.ckpt"
        save_state(path, model, AdamState.for_params(model.tensors(), lr=cfg.lr),
                   cfg, 0, [])
        line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        return path

    @pytest.mark.parametrize("key", ["arrays", "config", "epoch", "history",
                                     "adam"])
    def test_header_missing_key_is_parse_error(self, tmp_path, key):
        path = self._edited_header(tmp_path, lambda h: h.pop(key))
        with pytest.raises(ParseError, match=f"lacks '{key}'"):
            load_state(path)

    @pytest.mark.parametrize("key", ["step", "lr", "beta1", "beta2", "eps"])
    def test_adam_header_missing_key_is_parse_error(self, tmp_path, key):
        path = self._edited_header(tmp_path, lambda h: h["adam"].pop(key))
        with pytest.raises(ParseError, match=rf"adam header keys \['{key}'\]"):
            load_state(path)

    def test_adam_header_extra_key_is_parse_error(self, tmp_path):
        path = self._edited_header(
            tmp_path, lambda h: h["adam"].update(momentum=0.9))
        with pytest.raises(ParseError, match="momentum"):
            load_state(path)

    def test_array_the_model_does_not_read_is_validation_error(self, tmp_path):
        path = self._edited_header(
            tmp_path, lambda h: h["config"].update(num_layers=1), num_layers=2)
        with pytest.raises(ValidationError, match="holds array encoder.layer1.msg_w1,"):
            load_state(path)

    def test_adam_header_round_trips(self, tmp_path):
        path = self._edited_header(
            tmp_path, lambda h: h["adam"].update(step=4, beta2=0.99))
        _, opt, _, _, _ = load_state(path)
        assert (opt.step, opt.lr, opt.beta1, opt.beta2, opt.eps) == (
            4, 3e-2, 0.9, 0.99, 1e-8)


class TestExtractEmbeddings:
    def test_unit_rows_and_counts(self, graphs):
        cfg = fast_cfg()
        model = fast_model(cfg)
        table = extract_embeddings(model, graphs)
        present = table.present
        zs = np.concatenate([g.atomic_numbers for g in graphs])
        expected_counts = np.bincount(zs - 1, minlength=118)
        assert np.array_equal(table.counts, expected_counts)
        norms = np.linalg.norm(table.vectors[present], axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9
        assert np.all(table.vectors[~present] == 0.0)

    def test_single_occurrence_row(self):
        cfg = fast_cfg(cutoff=4.0)
        model = fast_model(cfg)
        g = build_periodic_graph(rocksalt_structure(3.0), cutoff=4.0)
        from crystalembed.encoder import encode_graph

        table = extract_embeddings(model, [g])
        h = encode_graph(model.encoder, g).data
        for node, z in enumerate(g.atomic_numbers):
            expected = h[node] / np.linalg.norm(h[node])
            assert np.allclose(table.vectors[z - 1], expected, atol=1e-12)

    def test_identical_occurrences_mean(self):
        cfg = fast_cfg(cutoff=4.0)
        model = fast_model(cfg)
        g = build_periodic_graph(cubic_structure(3.0, numbers=(29,)), cutoff=4.0)
        table = extract_embeddings(model, [g, g])
        assert table.counts[28] == 2
        from crystalembed.encoder import encode_graph

        h = encode_graph(model.encoder, g).data[0]
        assert np.allclose(table.vectors[28], h / np.linalg.norm(h), atol=1e-12)

    @pytest.mark.parametrize("cutoff", [4.0, 6.0])
    def test_graphs_at_another_cutoff_rejected_before_encoding(
            self, cutoff, monkeypatch):
        encoded = []
        monkeypatch.setattr(training, "encode_graph",
                            lambda *args: encoded.append(args))
        graphs = [build_periodic_graph(s, cutoff)
                  for s in make_pretraining_structures(4, seed=1)]
        with pytest.raises(ValidationError,
                           match="extraction needs graphs built at cutoff 5.0"):
            extract_embeddings(fast_model(fast_cfg()), graphs)
        assert encoded == []

    def test_empty_dataset_rejected(self):
        cfg = fast_cfg()
        with pytest.raises(ValidationError):
            extract_embeddings(fast_model(cfg), [])

    def test_off_the_tape_and_bounded_on_a_large_cell(self):
        # one 4x4x4 supercell (N=128, 1,792 edges), dim 64: recording the
        # forward pass would hold about 35 MB at its peak
        cfg = PretrainConfig(dim=64, num_layers=2, rbf_count=8, cutoff=5.0)
        g = build_periodic_graph(
            supercell(make_pretraining_structures(1, seed=3)[0], 4), 5.0)
        assert g.num_nodes == 128
        model = fast_model(cfg)
        tracemalloc.start()
        try:
            extract_embeddings(model, [g])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak
        assert all(p.grad is None for p in model.tensors())
        assert ag.mul(model.encoder.mask_vector,
                      model.encoder.mask_vector).requires_grad


class TestExtractionUnions:
    """Unions of graphs give the table of a one-graph-at-a-time pass, bit
    for bit, however the graphs fall into unions."""

    # a union holds one encoder tile of edges; at dim 64 that is 512 edges,
    # below the fixture's k = 3 and 4 supercells
    DIM = 64

    @pytest.fixture(scope="class")
    def mixed(self):
        cells = make_pretraining_structures(24, seed=3)
        small = [build_periodic_graph(s, 5.0) for s in cells]
        big = [build_periodic_graph(supercell(cells[i], k), 5.0)
               for i, k in ((0, 2), (1, 3), (2, 4))]
        # cells of N=2, 16, 54 and 128; a run of small cells longer than one
        # union; supercells above the bound; repeats of a graph
        return (small[:5] + [big[0]] + small[5:] + [big[2], small[3]]
                + [big[1], big[0]] + small[:4])

    def test_the_list_covers_every_case(self, mixed):
        assert {g.num_nodes for g in mixed} == {2, 16, 54, 128}
        bound = ag.tile_edges(self.DIM)
        assert bound == 512
        runs = list(training._unions(mixed, bound))
        alone = [r[0] for r in runs if len(r) == 1]
        assert any(g.num_edges > bound for g in alone)
        shared = [r for r in runs if len(r) > 1]
        assert len(shared) >= 2
        assert sum(len(r) for r in runs) == len(mixed)
        assert all(sum(g.num_edges for g in r) <= bound for r in shared)

    def test_edgeless_graphs_share_unions_of_bounded_count(self):
        g = build_periodic_graph(rocksalt_structure(3.0), cutoff=1.0)
        assert g.num_edges == 0
        bound = ag.tile_edges(self.DIM)
        runs = training._unions([g] * (2 * bound + 3), bound)
        assert [len(r) for r in runs] == [bound] * 2 + [3]
        model = fast_model(fast_cfg(cutoff=1.0))
        got = extract_embeddings(model, [g] * 3)
        want = extract_one_graph_at_a_time(model, [g] * 3)
        assert np.array_equal(got.vectors, want.vectors)

    @pytest.mark.parametrize("bound", [512, 100, 1])
    @pytest.mark.parametrize("dim", [8, 16, 64])
    def test_table_equals_the_per_graph_oracle_bitwise(self, mixed, bound, dim,
                                                       monkeypatch):
        # tiles, and so unions, of bound edges, in the extraction and the
        # oracle alike; 512 is the module's tile at dim 64
        monkeypatch.setattr(ag, "EDGE_TILE_BYTES", 16 * dim * bound)
        self.check_against_the_oracle(mixed, dim)

    @pytest.mark.parametrize("dim", [8, 16])
    def test_table_at_the_module_tile_equals_the_oracle_bitwise(self, mixed,
                                                                dim):
        assert ag.tile_edges(dim) > max(g.num_edges for g in mixed)
        self.check_against_the_oracle(mixed, dim)

    @staticmethod
    def check_against_the_oracle(mixed, dim):
        model = fast_model(fast_cfg(dim=dim, num_layers=2))
        got = extract_embeddings(model, mixed)
        want = extract_one_graph_at_a_time(model, mixed)
        assert np.array_equal(got.vectors, want.vectors)
        assert np.array_equal(got.counts, want.counts)

    def test_single_graph_equals_the_oracle_bitwise(self, mixed):
        model = fast_model(fast_cfg(num_layers=2))
        for g in (mixed[0], mixed[5]):
            got = extract_embeddings(model, [g])
            want = extract_one_graph_at_a_time(model, [g])
            assert np.array_equal(got.vectors, want.vectors)
            assert np.array_equal(got.counts, want.counts)
