import json

import numpy as np
import pytest

from crystalembed import autograd as ag
from crystalembed.augmentation import two_views
from crystalembed.checkpoint import load_checkpoint
from crystalembed.contrastive import info_nce, paired_batch_partners, project
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
from crystalembed.periodic_graph import (
    all_unordered_pairs,
    build_periodic_graph,
    multiplicity_targets,
)
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

from helpers import cubic_structure, rocksalt_structure, supercell

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

    def test_masked_scope_runs(self, graphs):
        cfg = fast_cfg(node_loss_scope="masked", mask_ratio=0.5)
        model = fast_model(cfg)
        opt = AdamState.for_params(model.tensors(), lr=cfg.lr)
        losses = pretrain_step(graphs[:2], model, opt, cfg, [0, 1])
        assert np.isfinite(losses["L_total"])


def per_view_losses(graphs, model, cfg, view_seeds):
    """Reference for pretrain_losses: every view encoded, decoded and
    projected on its own, per-view terms averaged in a Python loop."""
    node, adj, zs = [], [], []
    for g, seed in zip(graphs, view_seeds):
        pairs = np.asarray(all_unordered_pairs(g.num_nodes))
        classes = multiplicity_targets(g).classes[pairs[:, 0], pairs[:, 1]]
        for view in two_views(g, cfg.mask_ratio, cfg.drop_ratio, seed):
            h = encode_graph(model.encoder, view.graph, view.masked_nodes)
            scope = view.masked_nodes if cfg.node_loss_scope == "masked" else None
            node.append(node_nll(node_probs(h, model.node_decoder),
                                 g.atomic_numbers, scope))
            adj.append(adj_weighted_ce(
                adjacency_probs(h, model.adj_decoder, pairs), classes,
                model.adj_decoder.class_weights))
            zs.append(project(h, model.projector))

    def mean(terms):
        total = terms[0]
        for t in terms[1:]:
            total = ag.add(total, t)
        return ag.scale(total, 1.0 / len(terms))

    l_node, l_adj = mean(node), mean(adj)
    l_nce = info_nce(ag.concat(zs, axis=0),
                     paired_batch_partners(len(graphs)), cfg.temperature)
    total = ag.add(ag.add(ag.scale(l_node, cfg.alpha), ag.scale(l_adj, cfg.beta)),
                   ag.scale(l_nce, cfg.gamma))
    return l_node, l_adj, l_nce, total


# One pretrain_losses step on the mixed batch below, recorded when gathers
# scatter-added their gradients with np.add.at and the sigmoid split its
# input into two masked branches: the four losses (L_node, L_adj, L_infonce,
# L_total), then per parameter (name, |grad|, r . grad) with
# r = default_rng(position).normal(size=grad.size).
RECORDED_STEP = {
    "all": (
        [4.731368687626803, 1.7893068840222912, 1.6389855530542177, 1076.6321389112825],
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
        [4.682262240069858, 1.7893068840222912, 1.6389855530542177, 1065.5831882109699],
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

    def test_trailing_singleton_folded_into_last_batch(self, graphs, tmp_path):
        # 5 graphs with batch 2 -> batches of 2, 2+1
        cfg = fast_cfg(epochs=1, batch_size=2)
        res = pretrain(graphs[:5], cfg, tmp_path / "run")
        assert res.opt.step == 2


class TestSaveLoadState:
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
    def _edited_header(tmp_path, edit):
        """A saved state whose JSON header line went through edit(header)."""
        cfg = fast_cfg(epochs=1)
        model = fast_model(cfg)
        path = tmp_path / "s.ckpt"
        save_state(path, model, AdamState.for_params(model.tensors(), lr=cfg.lr),
                   cfg, 1, [])
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
        cfg = fast_cfg()
        model = fast_model(cfg)
        g = build_periodic_graph(rocksalt_structure(3.0), cutoff=4.0)
        from crystalembed.encoder import encode_graph

        table = extract_embeddings(model, [g])
        h = encode_graph(model.encoder, g).data
        for node, z in enumerate(g.atomic_numbers):
            expected = h[node] / np.linalg.norm(h[node])
            assert np.allclose(table.row(int(z)), expected, atol=1e-12)

    def test_identical_occurrences_mean(self):
        cfg = fast_cfg()
        model = fast_model(cfg)
        g = build_periodic_graph(cubic_structure(3.0, numbers=(29,)), cutoff=4.0)
        table = extract_embeddings(model, [g, g])
        assert table.counts[28] == 2
        from crystalembed.encoder import encode_graph

        h = encode_graph(model.encoder, g).data[0]
        assert np.allclose(table.row(29), h / np.linalg.norm(h), atol=1e-12)

    def test_empty_dataset_rejected(self):
        cfg = fast_cfg()
        with pytest.raises(ValidationError):
            extract_embeddings(fast_model(cfg), [])
