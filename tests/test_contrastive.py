import math

import numpy as np
import pytest

from crystalembed import autograd as ag
from crystalembed.augmentation import batch_views, two_views
from crystalembed.contrastive import (
    ProjectorParams,
    info_nce,
    init_projector,
    project,
)
from crystalembed.encoder import encode, init_encoder_params
from crystalembed.errors import ValidationError
from crystalembed.periodic_graph import build_periodic_graph

from helpers import cubic_structure, grad_check, one_segment, rocksalt_structure


class TestProject:
    def test_single_node_mean_is_identity(self):
        rng = np.random.default_rng(0)
        p = init_projector(rng, 4)
        h = rng.normal(size=(1, 4))
        got = project(ag.constant(h), p, one_segment(1)).data
        x = h[0] @ p.w1.data + p.b1.data
        s = x / (1.0 + np.exp(-x))  # SiLU = x * sigmoid(x)
        expected = s @ p.w2.data + p.b2.data
        assert np.allclose(got[0], expected, atol=1e-12)

    def test_duplicating_nodes_leaves_projection_unchanged(self):
        rng = np.random.default_rng(1)
        p = init_projector(rng, 4)
        h = rng.normal(size=(3, 4))
        doubled = np.vstack([h, h])
        a = project(ag.constant(h), p, one_segment(3)).data
        b = project(ag.constant(doubled), p, one_segment(6)).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        p = init_projector(rng, 5)
        h = rng.normal(size=(4, 5))
        got = project(ag.constant(h), p, one_segment(4)).data
        pooled = h.mean(axis=0)
        pre = p.w1.data.T @ pooled + p.b1.data
        act = pre / (1.0 + np.exp(-pre))
        expected = p.w2.data.T @ act + p.b2.data
        assert got.shape == (1, 5)
        assert np.allclose(got[0], expected, atol=1e-12)

    def test_empty_input_rejected(self):
        rng = np.random.default_rng(3)
        p = init_projector(rng, 4)
        with pytest.raises(ValidationError):
            project(ag.constant(np.zeros((0, 4))), p, one_segment(0))


class TestProjectorValidation:
    def test_dim_chain_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            ProjectorParams(
                w1=ag.parameter(rng.normal(size=(4, 5)), "w1"),
                b1=ag.parameter(np.zeros(5), "b1"),
                w2=ag.parameter(rng.normal(size=(6, 4)), "w2"),
                b2=ag.parameter(np.zeros(4), "b2"),
            )

    def test_temperature_positive(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            init_projector(rng, 4, temperature=0.0)
        with pytest.raises(ValidationError):
            init_projector(rng, 4, temperature=-1.0)


class TestInfoNce:
    def test_identical_embeddings_log_2n_minus_1(self):
        for n_pairs, tau in ((2, 1.0), (2, 0.1), (4, 0.25)):
            rows = 2 * n_pairs
            z = ag.constant(np.tile([1.0, 2.0, 3.0], (rows, 1)))
            loss = info_nce(z, tau)
            assert abs(loss.data - math.log(rows - 1)) < 1e-12
        z = ag.constant(np.ones((4, 3)))
        loss = info_nce(z, 1.0)
        assert abs(loss.data - 1.0986122886681098) < 1e-12

    def test_orthogonal_negatives_hand_value(self):
        # positives collinear, all negatives orthogonal, tau=1:
        # every anchor sees denominator e + 2
        z = ag.constant(np.array([
            [1.0, 0.0], [1.0, 0.0],
            [0.0, 1.0], [0.0, 1.0],
        ]))
        loss = info_nce(z, 1.0)
        expected = -math.log(math.e / (math.e + 2.0))
        assert abs(loss.data - expected) < 1e-15
        assert abs(loss.data - 0.5514447139320511) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 4))
        a = info_nce(ag.constant(z), 0.2).data
        b = info_nce(ag.constant(2.5 * z), 0.2).data
        assert abs(a - b) < 1e-12

    def test_permutation_invariance(self):
        # the layout fixes rows 2k and 2k + 1 as a pair: reordering whole
        # pairs, or the two views within pairs, keeps every positive
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 4))
        a = info_nce(ag.constant(z), 0.5).data
        pairs = 2 * rng.permutation(3)
        for perm in (np.column_stack([pairs, pairs + 1]).ravel(),
                     np.array([1, 0, 2, 3, 5, 4])):
            b = info_nce(ag.constant(z[perm]), 0.5).data
            assert abs(a - b) < 1e-12

    def test_monotone_in_positive_similarity(self):
        # positives at angle 2a from each other, negatives orthogonal and
        # fixed: shrinking a increases positive similarity, loss must drop
        losses = []
        for a in (0.7, 0.5, 0.3, 0.1, 0.0):
            p0 = [math.cos(a), math.sin(a), 0.0]
            p1 = [math.cos(a), -math.sin(a), 0.0]
            z = ag.constant(np.array([p0, p1,
                                      [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
            losses.append(info_nce(z, 0.5).data)
        assert all(x > y for x, y in zip(losses, losses[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            info_nce(ag.constant(np.ones((4, 2))), 0.0)
        with pytest.raises(ValidationError):
            info_nce(ag.constant(np.ones((2, 2))), 1.0)
        with pytest.raises(ValidationError):
            info_nce(ag.constant(np.ones((5, 2))), 1.0)


class TestEndToEndGradient:
    def test_contrastive_pipeline_grad_check(self):
        rng = np.random.default_rng(9)
        enc = init_encoder_params(rng, dim=3, num_layers=1, rbf_count=4,
                                  cutoff=4.0)
        proj = init_projector(rng, 3, temperature=0.5)
        graphs = [
            build_periodic_graph(rocksalt_structure(3.2), cutoff=4.0),
            build_periodic_graph(
                cubic_structure(3.0, numbers=(13,)), cutoff=4.0),
        ]
        views = []
        for k, g in enumerate(graphs):
            views.extend(two_views(g, mask_ratio=0.3, drop_ratio=0.2, seed=k))

        def f():
            zs = [project(encode(enc, batch_views([v])), proj,
                          one_segment(v.source.num_nodes)) for v in views]
            return info_nce(ag.concat(zs, axis=0), proj.temperature)

        params = enc.tensors() + proj.tensors()
        err = grad_check(f, params, h=1e-5, floor=1e-3)
        assert err < 1e-4, err
