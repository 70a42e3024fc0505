import math

import numpy as np
import pytest

from vulcontrast import autodiff as ad
from vulcontrast.losses import (LossError, LossWeights, bce_loss, clip_loss,
                                consistency_loss, dual_clip_loss,
                                similarity_matrix, total_loss)


def unit_rows(n, d, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestSimilarityMatrix:
    def test_identical_rows_unit_diagonal(self):
        rows = ad.constant(unit_rows(3, 4, 1))
        sim = similarity_matrix(rows, rows, 1.0)
        assert np.allclose(np.diag(sim.data), 1.0)

    def test_orthogonal_rows_zero_matrix(self):
        code = ad.constant([[1.0, 0.0], [0.0, 1.0]])
        text = ad.constant([[0.0, 1.0], [1.0, 0.0]])
        sim = similarity_matrix(code, text, 2.0)
        assert np.allclose(np.diag(sim.data), 0.0)

    def test_matches_brute_force_at_gamma_14(self):
        code, text = unit_rows(4, 6, 2), unit_rows(4, 6, 3)
        sim = similarity_matrix(ad.constant(code), ad.constant(text), 14.0)
        assert np.allclose(sim.data, 14.0 * code @ text.T,
                           atol=1e-9)

    def test_batch_mismatch_rejected(self):
        with pytest.raises(LossError):
            similarity_matrix(ad.constant(unit_rows(3, 4)),
                              ad.constant(unit_rows(2, 4)), 1.0)


class TestClipLoss:
    def test_single_pair_is_zero(self):
        assert clip_loss(ad.constant([[3.7]])).item() == 0.0

    @pytest.mark.parametrize("B", [2, 3, 5, 8])
    def test_constant_matrix_gives_ln_B(self, B):
        for fill in (0.0, 2.5, -1.0):
            loss = clip_loss(ad.constant(np.full((B, B), fill)))
            assert abs(loss.item() - math.log(B)) < 1e-9

    def test_hand_value_diag_two(self):
        loss = clip_loss(ad.constant([[2.0, 0.0], [0.0, 2.0]]))
        assert abs(loss.item() - math.log(1 + math.exp(-2))) < 1e-9

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(4)
        S = rng.normal(size=(5, 5))
        base = clip_loss(ad.constant(S)).item()
        for _ in range(5):
            perm = rng.permutation(5)
            permuted = S[np.ix_(perm, perm)]
            assert abs(clip_loss(ad.constant(permuted)).item() - base) \
                < 1e-12

    def test_diagonal_increase_decreases_loss(self):
        S = np.random.default_rng(5).normal(size=(4, 4))
        base = clip_loss(ad.constant(S)).item()
        S2 = S.copy()
        S2[2, 2] += 0.5
        assert clip_loss(ad.constant(S2)).item() < base

    def test_nonnegative(self):
        for seed in range(10):
            S = np.random.default_rng(seed).normal(size=(3, 3)) * 5
            assert clip_loss(ad.constant(S)).item() >= 0.0

    def test_large_logits_stable(self):
        S = ad.constant([[500.0, -500.0], [-500.0, 500.0]])
        assert np.isfinite(clip_loss(S).item())

    def test_non_square_rejected(self):
        with pytest.raises(LossError):
            clip_loss(ad.constant(np.zeros((2, 3))))


class TestDualClipLoss:
    def test_zero_aug_weight_reduces_to_original(self):
        S = ad.constant(np.random.default_rng(6).normal(size=(3, 3)))
        S_aug = ad.constant(np.random.default_rng(7).normal(size=(3, 3)))
        w = LossWeights(clip_orig=0.7, clip_aug=0.0)
        got = dual_clip_loss(S, S_aug, w).item()
        assert abs(got - 0.7 * clip_loss(S).item()) < 1e-12

    def test_uniform_matrices_default_weights(self):
        S = ad.constant(np.zeros((2, 2)))
        w = LossWeights(clip_orig=0.5, clip_aug=0.5)
        got = dual_clip_loss(S, ad.constant(np.zeros((2, 2))), w).item()
        assert abs(got - math.log(2)) < 1e-12

    def test_batch_mismatch_rejected(self):
        with pytest.raises(LossError):
            dual_clip_loss(ad.constant(np.zeros((2, 2))),
                           ad.constant(np.zeros((3, 3))), LossWeights())


class TestConsistencyLoss:
    def test_equal_views_zero(self):
        z = ad.constant(unit_rows(4, 3, 8))
        assert consistency_loss(z, z, z, z).item() == 0.0

    def test_worked_orthogonal_case(self):
        zc = ad.constant([[1.0, 0.0]])
        zc_t = ad.constant([[0.0, 1.0]])
        got = consistency_loss(zc, zc_t, zc, zc_t).item()
        assert abs(got - 2.0) < 1e-12

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(9)
        z = ad.constant(unit_rows(3, 4, 10))
        d = rng.normal(size=(3, 4))
        base = consistency_loss(
            z, ad.constant(z.data + d), z, z).item()
        for c in (0.5, 2.0, 10.0):
            scaled = consistency_loss(
                z, ad.constant(z.data + c * d), z, z).item()
            assert abs(scaled - c ** 2 * base) < 1e-9 * max(1, scaled)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LossError):
            consistency_loss(ad.constant(np.zeros((2, 3))),
                             ad.constant(np.zeros((3, 3))),
                             ad.constant(np.zeros((2, 3))),
                             ad.constant(np.zeros((2, 3))))


class TestBceLoss:
    def test_half_probability(self):
        got = bce_loss(ad.constant([[0.5]]), [1]).item()
        assert abs(got - math.log(2)) < 1e-12

    def test_perfect_prediction_clamped(self):
        got = bce_loss(ad.constant([[1.0 - 1e-9], [1e-9]]), [1, 0]).item()
        assert got < 1e-6

    def test_hand_value(self):
        got = bce_loss(ad.constant([[0.9], [0.2]]), [1, 0]).item()
        expect = (-math.log(0.9) - math.log(0.8)) / 2
        assert abs(got - expect) < 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(LossError):
            bce_loss(ad.constant([[0.5]]), [1, 0])

    def test_bad_label_rejected(self):
        with pytest.raises(LossError):
            bce_loss(ad.constant([[0.5]]), [2])


def random_batch(B=4, d=6, seed=0):
    rng = np.random.default_rng(seed)
    mk = lambda s: ad.constant(unit_rows(B, d, s))
    z_c, z_ca, z_t, z_ta = (mk(seed + k) for k in range(4))
    sim_o = similarity_matrix(z_c, z_t, 14.0)
    sim_a = similarity_matrix(z_ca, z_ta, 14.0)
    probs = ad.sigmoid(ad.constant(rng.normal(size=(B, 1))))
    labels = list(rng.integers(0, 2, size=B))
    return sim_o, sim_a, z_c, z_ca, z_t, z_ta, probs, labels


class TestTotalLoss:
    def test_components_match_independent_recomputation(self):
        sim_o, sim_a, z_c, z_ca, z_t, z_ta, probs, labels = random_batch()
        w = LossWeights(0.5, 0.5, 0.1, 1.0)
        total, bd = total_loss(sim_o, sim_a, z_c, z_ca, z_t, z_ta, probs,
                               labels, w)
        assert abs(bd.clip_orig - clip_loss(sim_o).item()) < 1e-12
        assert abs(bd.clip_aug - clip_loss(sim_a).item()) < 1e-12
        assert abs(bd.consistency
                   - consistency_loss(z_c, z_ca, z_t, z_ta).item()) < 1e-12
        assert abs(bd.classification - bce_loss(probs, labels).item()) \
            < 1e-12

    def test_composition_identity(self):
        sim_o, sim_a, z_c, z_ca, z_t, z_ta, probs, labels = random_batch(5)
        w = LossWeights(0.5, 0.5, 0.1, 1.0)
        _, bd = total_loss(sim_o, sim_a, z_c, z_ca, z_t, z_ta, probs,
                           labels, w)
        expect = (0.5 * bd.clip_orig + 0.5 * bd.clip_aug
                  + 0.1 * bd.consistency + 1.0 * bd.classification)
        assert abs(bd.total - expect) < 1e-12

    def test_classification_only_reduction(self):
        sim_o, sim_a, z_c, z_ca, z_t, z_ta, probs, labels = random_batch(6)
        w = LossWeights(0.0, 0.0, 0.0, 1.0)
        total, bd = total_loss(sim_o, sim_a, z_c, z_ca, z_t, z_ta, probs,
                               labels, w)
        assert bd.clip_orig == bd.clip_aug == bd.consistency == 0.0
        assert abs(total.item() - bce_loss(probs, labels).item()) < 1e-12

    def test_disable_consistency_ablation(self):
        sim_o, sim_a, z_c, z_ca, z_t, z_ta, probs, labels = random_batch(7)
        w = LossWeights(0.5, 0.5, 0.0, 1.0)
        _, bd = total_loss(sim_o, sim_a, z_c, z_ca, z_t, z_ta, probs,
                           labels, w)
        assert bd.consistency == 0.0
        assert abs(bd.total - (0.5 * bd.clip_orig + 0.5 * bd.clip_aug
                               + bd.classification)) < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(LossError):
            LossWeights(clip_orig=-0.1)


class TestLossGradients:
    def test_clip_loss_grad_check(self):
        S = ad.parameter(np.random.default_rng(11).normal(size=(3, 3)), "S")
        err = ad.grad_check(lambda: clip_loss(S), [S], step=1e-4)
        assert err < 1e-4

    def test_dual_clip_grad_check(self):
        rng = np.random.default_rng(12)
        a = ad.parameter(rng.normal(size=(3, 3)), "a")
        b = ad.parameter(rng.normal(size=(3, 3)), "b")
        w = LossWeights(0.5, 0.5)
        err = ad.grad_check(lambda: dual_clip_loss(a, b, w), [a, b],
                            step=1e-4)
        assert err < 1e-4

    def test_consistency_grad_check(self):
        rng = np.random.default_rng(13)
        ps = [ad.parameter(rng.normal(size=(3, 4)), f"z{i}")
              for i in range(4)]
        err = ad.grad_check(lambda: consistency_loss(*ps), ps, step=1e-4)
        assert err < 1e-4

    def test_bce_grad_check(self):
        logits = ad.parameter(
            np.random.default_rng(14).normal(size=(4, 1)), "logits")
        labels = [1, 0, 1, 1]
        err = ad.grad_check(
            lambda: bce_loss(ad.sigmoid(logits), labels), [logits],
            step=1e-4)
        assert err < 1e-4

    def test_total_loss_grad_check_through_projections(self):
        rng = np.random.default_rng(15)
        raw = [ad.parameter(rng.uniform(-2, 2, size=(3, 4)), f"r{i}")
               for i in range(4)]
        logits = ad.parameter(rng.normal(size=(3, 1)), "logits")
        labels = [1, 0, 1]
        w = LossWeights(0.5, 0.5, 0.1, 1.0)

        def fn():
            z_c, z_ca, z_t, z_ta = (ad.row_l2_normalize(r) for r in raw)
            sim_o = similarity_matrix(z_c, z_t, 14.0)
            sim_a = similarity_matrix(z_ca, z_ta, 14.0)
            total, _ = total_loss(sim_o, sim_a, z_c, z_ca, z_t, z_ta,
                                  ad.sigmoid(logits), labels, w)
            return total

        err = ad.grad_check(fn, raw + [logits], step=1e-4)
        assert err < 1e-4
