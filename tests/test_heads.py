"""Head tests: hand-checked projectors and distances, posterior laws,
the orthogonalization penalty, each head's one distance path against
independent numpy oracles, and the one-node episode loss's adjoint.
"""

import numpy as np
import pytest

from fewshot.errors import ContractError, DegenerateSubspaceError, ShapeError
from fewshot.heads import (HEADS, CosineHead, Hyper, ProtoHead,
                           RegressionHead, cross_entropy, make_head,
                           ortho_penalty, predict_np, ridge_residuals)
from fewshot.verify import build_projector_np, softmax_neg_np
from oracles import lstsq_distances, ortho_penalty_np


def regression_distances_np(s, queries, lambda1):
    """1 x B residual norms of the production path."""
    return ridge_residuals(s, queries, 1, lambda1)[0]


def penalty(supports):
    """heads.ortho_penalty of per-class blocks laid side by side (M x NK)."""
    return ortho_penalty(np.hstack(supports), len(supports))[0].item()


def loss_and_distances(head, embedded, labels, hyper):
    """``head.episode_loss`` of the M x (NK + B) embedding, less its back."""
    loss, dist, _ = head.episode_loss(embedded, labels, hyper)
    return loss, dist


def lse_reconstruction(dist, labels):
    """Mean of d_true + logsumexp(-d) over the columns of a numpy matrix."""
    neg = -dist
    m = neg.max(axis=0, keepdims=True)
    lse = m + np.log(np.sum(np.exp(neg - m), axis=0, keepdims=True))
    picked = dist[labels - 1, np.arange(dist.shape[1])]
    return float(np.mean(picked + lse[0, :]))


def test_hyper_validates_counts_and_weights():
    Hyper(2, 1, 1, 0.0, 0.0)
    with pytest.raises(ContractError, match="^n_way must be >= 2, got 1$"):
        Hyper(n_way=1)
    with pytest.raises(ContractError, match="^k_shot must be >= 1, got 0$"):
        Hyper(k_shot=0)
    with pytest.raises(ContractError, match="^q_queries must be >= 1, got 0$"):
        Hyper(q_queries=0)
    with pytest.raises(ContractError):
        Hyper(lambda1=-0.1)
    with pytest.raises(ContractError):
        Hyper(lambda2=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ContractError, match="lambda1 must be finite"):
            Hyper(lambda1=bad)
        with pytest.raises(ContractError, match="lambda2 must be finite"):
            Hyper(lambda2=bad)


# -- projector and distance ---------------------------------------------------


def test_single_shot_ridge_projector_hand_value():
    # S = (1, 0)^T, lambda1 = 1: S^T S + 1 = 2, so P = S S^T / 2
    s = np.array([[1.0], [0.0]])
    p = build_projector_np(s, 1.0)
    assert np.allclose(p, np.array([[0.5, 0.0], [0.0, 0.0]]), atol=1e-15)
    d = regression_distances_np(s, np.array([[1.0], [0.0]]), 1.0)
    assert d[0, 0] == pytest.approx(0.5, abs=1e-14)
    d = regression_distances_np(s, np.array([[0.0], [1.0]]), 1.0)
    assert d[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_axis_aligned_projector_is_diagonal():
    s = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    p = build_projector_np(s, 0.0)
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-14)
    # distance from (a, b, c) to the xy-plane is |c|
    d = regression_distances_np(s, np.array([[2.0], [-3.0], [4.0]]), 0.0)
    assert d[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_distance_vanishes_inside_the_span():
    rng = np.random.default_rng(17)
    s = rng.standard_normal((8, 3))
    inside = s @ rng.standard_normal((3, 1))
    assert regression_distances_np(s, inside, 0.0)[0, 0] < 1e-10


def test_distance_is_invariant_to_support_reparameterization():
    # span(S R) = span(S) for invertible R, so the exact distance agrees
    rng = np.random.default_rng(23)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((10, 4))
        r = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        e = rng.standard_normal((10, 1))
        d0 = regression_distances_np(s, e, 0.0)[0, 0]
        d1 = regression_distances_np(s @ r, e, 0.0)[0, 0]
        assert d0 == pytest.approx(d1, rel=1e-8)


def test_tape_distance_matches_numpy_twin():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        # M = 6 > K = 3, and with a ridge also M = 2 < K = 3: S^T S is
        # singular there but S^T S + lambda1 I is not
        for m, lam in ((6, float(rng.uniform(0.0, 2.0))),
                       (2, float(rng.uniform(0.1, 2.0)))):
            s_val = rng.standard_normal((m, 3))
            q_val = rng.standard_normal((m, 4))
            assert np.allclose(regression_distances_np(s_val, q_val, lam),
                               lstsq_distances(s_val, q_val, lam), atol=1e-12)


def test_projector_route_matches_coefficient_route():
    rng = np.random.default_rng(41)
    s = rng.standard_normal((7, 2))
    q = rng.standard_normal((7, 5))
    p = build_projector_np(s, 0.5)
    resid = q - p @ q
    via_projector = np.sqrt(np.sum(resid * resid, axis=0, keepdims=True))
    assert np.allclose(via_projector, regression_distances_np(s, q, 0.5), atol=1e-12)


def test_regression_distance_rejects_fat_support_without_a_ridge():
    # without a ridge, K > M columns cannot have full column rank
    with pytest.raises(ContractError, match="M=2 < K=3"):
        ridge_residuals(np.ones((2, 6)), np.ones((2, 1)), 2, 0.0)


def test_regression_distance_checks_query_shape():
    support = np.hstack([np.eye(3), np.eye(3)])
    with pytest.raises(ShapeError):
        ridge_residuals(support, np.ones((2, 1)), 2, 0.1)
    with pytest.raises(ShapeError):
        ridge_residuals(support, np.ones((4, 1)), 2, 0.1)


def test_stacked_distances_match_one_class_at_a_time():
    rng = np.random.default_rng(47)
    s_vals = [rng.standard_normal((6, 3)) for _ in range(4)]
    q = rng.standard_normal((6, 5))
    dist, _ = ridge_residuals(np.hstack(s_vals), q, 4, 0.3)
    oracle = np.vstack([lstsq_distances(s, q, 0.3) for s in s_vals])
    assert dist.shape == (4, 5)
    assert np.allclose(dist, oracle, atol=1e-12)
    # 12 support columns do not split into 5 equal class blocks
    with pytest.raises(ShapeError):
        ridge_residuals(np.hstack(s_vals), q, 5, 0.3)


# -- posterior -----------------------------------------------------------------


def test_posterior_hand_value():
    p = softmax_neg_np(np.array([[0.0], [1.0], [2.0]]))
    assert np.allclose(p[:, 0], [0.66524096, 0.24472847, 0.09003057], atol=1e-8)
    assert p.sum() == pytest.approx(1.0, abs=1e-15)


def test_posterior_prefers_the_nearest_subspace():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        d = rng.uniform(0.0, 4.0, size=(5, 1))
        p = softmax_neg_np(d)
        assert int(np.argmax(p)) == int(np.argmin(d))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_equal_distances_give_a_uniform_posterior():
    p = softmax_neg_np(np.full((4, 1), 2.5))
    assert np.allclose(p, 0.25, atol=1e-15)


def test_posterior_is_shift_invariant_and_stable():
    d = np.array([[1.0], [2.0], [3.0]])
    assert np.allclose(softmax_neg_np(d), softmax_neg_np(d + 1000.0), atol=1e-12)
    assert np.all(np.isfinite(softmax_neg_np(np.array([[1e4], [0.0]]))))


def test_tape_posterior_matches_numpy():
    # the loss of a query labelled c is -log posterior_c
    rng = np.random.default_rng(7)
    s_vals = [rng.standard_normal((6, 2)) for _ in range(4)]
    e = rng.standard_normal((6, 1))
    dist, _ = ridge_residuals(np.hstack(s_vals), e, 4, 1e-3)
    on_tape = np.array([
        np.exp(-cross_entropy(dist, np.array([c]))[0].item())
        for c in range(1, 5)
    ])
    oracle = np.vstack([lstsq_distances(s, e, 1e-3) for s in s_vals])
    assert np.allclose(on_tape, softmax_neg_np(oracle)[:, 0], atol=1e-12)
    assert on_tape.sum() == pytest.approx(1.0, abs=1e-12)


# -- orthogonalization penalty ---------------------------------------------------


def test_penalty_counts_ordered_pairs():
    # identical unit columns: the single unordered term is 1, ordered sum is 2
    u = np.array([[1.0], [0.0]])
    assert penalty([u, u]) == pytest.approx(2.0, abs=1e-12)
    assert ortho_penalty_np([u, u]) == pytest.approx(2.0, abs=1e-12)


def test_penalty_is_zero_for_orthogonal_subspaces():
    s1 = np.array([[1.0], [0.0], [0.0]])
    s2 = np.array([[0.0], [1.0], [0.0]])
    assert penalty([s1, s2]) == pytest.approx(0.0, abs=1e-15)


def test_penalty_tape_matches_numpy_twin():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        s_vals = [rng.standard_normal((6, 2)) for _ in range(4)]
        assert penalty(s_vals) == pytest.approx(ortho_penalty_np(s_vals), rel=1e-12)


def test_penalty_is_permutation_invariant():
    rng = np.random.default_rng(31)
    s_vals = [rng.standard_normal((5, 2)) for _ in range(3)]
    assert ortho_penalty_np(s_vals) == pytest.approx(
        ortho_penalty_np(s_vals[::-1]), rel=1e-12)
    assert penalty(s_vals) == pytest.approx(penalty(s_vals[::-1]), rel=1e-12)


def test_penalty_is_invariant_to_support_scaling():
    rng = np.random.default_rng(37)
    s_vals = [rng.standard_normal((5, 2)) for _ in range(3)]
    scaled = [3.0 * s_vals[0], 0.5 * s_vals[1], s_vals[2]]
    assert ortho_penalty_np(s_vals) == pytest.approx(
        ortho_penalty_np(scaled), rel=1e-12)
    assert penalty(s_vals) == pytest.approx(penalty(scaled), rel=1e-12)


def test_penalty_rejects_a_degenerate_subspace():
    good = np.eye(2)
    zero = np.zeros((2, 2))
    with pytest.raises(DegenerateSubspaceError, match="class 2"):
        penalty([good, zero, good])


# -- episode loss ----------------------------------------------------------------


def test_uninformative_distances_cost_log_n():
    labels = np.array([1, 2, 1, 2])
    loss, _ = cross_entropy(np.full((2, 4), 3.0), labels)
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_confident_correct_distances_cost_little():
    labels = np.array([1, 2])
    loss, _ = cross_entropy(np.array([[0.0, 10.0], [10.0, 0.0]]), labels)
    assert loss.item() == pytest.approx(np.log(1.0 + np.exp(-10.0)), abs=1e-12)


def test_cross_entropy_label_contracts():
    dist = np.zeros((3, 4))
    with pytest.raises(ContractError):
        cross_entropy(dist, np.array([0, 1, 2, 3]))
    with pytest.raises(ContractError):
        cross_entropy(dist, np.array([1, 2, 3, 4]))
    with pytest.raises(ShapeError):
        cross_entropy(dist, np.array([1, 2, 3]))


def test_episode_loss_adds_exactly_the_weighted_penalty():
    rng = np.random.default_rng(43)
    s_vals = [rng.standard_normal((6, 2)) for _ in range(3)]
    q = rng.standard_normal((6, 6))
    labels = np.array([1, 1, 2, 2, 3, 3])

    def loss_at(lambda2):
        hyper = Hyper(3, 2, 2, 1e-3, lambda2)
        loss, _ = loss_and_distances(RegressionHead(), np.hstack(s_vals + [q]), labels, hyper)
        return loss.item()

    bare = loss_at(0.0)
    weighted = loss_at(0.05)
    assert weighted - bare == pytest.approx(0.05 * ortho_penalty_np(s_vals), rel=1e-10)


def test_regression_head_loss_matches_numpy_reconstruction():
    # same episode, one path through the loss and one from numpy oracles
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        n, k, q = 3, 2, 2
        support_cols = [rng.standard_normal((5, k)) for _ in range(n)]
        query = rng.standard_normal((5, n * q))
        labels = np.repeat(np.arange(1, n + 1), q)
        hyper = Hyper(n, k, q, 1e-2, 1e-2)

        head = RegressionHead()
        loss, dist = loss_and_distances(head, np.hstack(support_cols + [query]), labels, hyper)

        oracle = np.vstack([lstsq_distances(s, query, hyper.lambda1)
                            for s in support_cols])
        assert np.allclose(dist, oracle, atol=1e-12)
        expected = lse_reconstruction(oracle, labels)
        expected += hyper.lambda2 * ortho_penalty_np(support_cols)
        assert loss.item() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("lambda2", [0.0, 0.05])
def test_the_loss_node_differentiates_the_whole_episode_loss(lambda2):
    # one loss per episode: its back, the adjoint of the embedding, against
    # central differences, and, bit for bit, the kernels' adjoints chained
    # by hand: the support columns get the distance adjoint plus the
    # overlap adjoint at g = lambda2 (regression only; the baselines'
    # losses do not read lambda2), the query columns the distance adjoint
    rng = np.random.default_rng(79)
    hyper = Hyper(3, 2, 2, 0.3, lambda2)
    labels = np.array([1, 1, 2, 2, 3, 3])
    embedded = rng.standard_normal((4, 12))
    support, query = embedded[:, :6].copy(), embedded[:, 6:].copy()
    h = 1e-6
    for head in (RegressionHead(), ProtoHead(), CosineHead()):
        _, dist, back = head.episode_loss(embedded, labels, hyper)
        grad = back(np.ones((1, 1)))
        approx = np.zeros_like(embedded)
        for idx in np.ndindex(embedded.shape):
            plus, minus = embedded.copy(), embedded.copy()
            plus[idx] += h
            minus[idx] -= h
            approx[idx] = (loss_and_distances(head, plus, labels, hyper)[0].item()
                           - loss_and_distances(head, minus, labels, hyper)[0].item()) / (2.0 * h)
        assert np.max(np.abs(grad - approx)) < 5e-5 * max(1.0, np.max(np.abs(approx)))

        d, dist_back = head.distance_rows(support, query, hyper)
        assert np.array_equal(d, dist)
        _, ce_back = cross_entropy(d, labels)
        support_grad, query_grad = dist_back(ce_back(np.ones((1, 1))))
        if head.name == "regression" and lambda2 > 0.0:
            _, penalty_back = ortho_penalty(support, 3)
            support_grad = penalty_back(np.full((1, 1), lambda2)) + support_grad
        assert np.array_equal(grad[:, :6], support_grad), head.name
        assert np.array_equal(grad[:, 6:], query_grad), head.name


def test_the_loss_node_checks_the_embedding_width():
    # 3-way 2-shot with 6 labels needs 12 columns; 11 or 13 name both counts
    hyper = Hyper(3, 2, 2, 0.3, 0.05)
    labels = np.array([1, 1, 2, 2, 3, 3])
    for head in (RegressionHead(), ProtoHead(), CosineHead()):
        for width in (11, 13):
            with pytest.raises(ShapeError, match=f"12 in all, got {width}"):
                loss_and_distances(head, np.ones((4, width)), labels, hyper)


# -- baseline heads ----------------------------------------------------------------


def test_proto_distances_match_manual_centroids():
    # one episode, then an (E, M, NK) stack of episodes checked one by one
    rng = np.random.default_rng(61)
    support = rng.standard_normal((3, 4, 9))
    query = rng.standard_normal((3, 4, 5))
    hyper = Hyper(3, 3, 5, 0.0, 0.0)
    lone = ProtoHead().distances_np(support[0], query[0], hyper)
    stacked = ProtoHead().distances_np(support, query, hyper)
    assert stacked.shape == (3, 3, 5)
    for s, q, got in [(support[0], query[0], lone), *zip(support, query, stacked)]:
        for c in range(3):
            centroid = s[:, 3 * c : 3 * c + 3].mean(axis=1, keepdims=True)
            for j in range(5):
                expected = float(np.linalg.norm(q[:, [j]] - centroid))
                assert got[c, j] == pytest.approx(expected, abs=1e-12)
    # the first query is class 1's centroid exactly: d = 0 there, and the
    # episode loss still gives finite gradients everywhere
    support = np.array([[1.0, 3.0, 0.0, 4.0], [2.0, 0.0, 1.0, 1.0], [3.0, 1.0, 5.0, 2.0]])
    query = np.array([[2.0, 0.5], [1.0, 1.0], [2.0, -1.0]])
    hyper = Hyper(2, 2, 1, 0.0, 0.0)
    loss, dist, back = ProtoHead().episode_loss(np.hstack([support, query]),
                                                np.array([1, 2]), hyper)
    assert dist[0, 0] == 0.0
    assert np.all(np.isfinite(back(np.ones((1, 1)))))
    assert np.isfinite(loss.item())


def test_proto_episode_loss_agrees_with_its_distances():
    rng = np.random.default_rng(67)
    n, k, q = 2, 3, 2
    support_cols = [rng.standard_normal((4, k)) for _ in range(n)]
    query = rng.standard_normal((4, n * q))
    labels = np.repeat(np.arange(1, n + 1), q)
    hyper = Hyper(n, k, q, 0.0, 0.0)
    head = ProtoHead()
    loss, _ = loss_and_distances(head, np.hstack(support_cols + [query]), labels, hyper)
    dist = head.distances_np(np.hstack(support_cols), query, hyper)
    assert loss.item() == pytest.approx(lse_reconstruction(dist, labels), rel=1e-12)


def test_cosine_scores_match_manual_means():
    # one episode, then an (E, M, NK) stack of episodes checked one by one
    rng = np.random.default_rng(71)
    support = rng.standard_normal((2, 4, 4))
    query = rng.standard_normal((2, 4, 3))
    hyper = Hyper(2, 2, 3, 0.0, 0.0)
    lone = CosineHead().distances_np(support[0], query[0], hyper)
    stacked = CosineHead().distances_np(support, query, hyper)
    assert stacked.shape == (2, 2, 3)
    for s, q, got in [(support[0], query[0], lone), *zip(support, query, stacked)]:
        for c in range(2):
            for j in range(3):
                v = q[:, j]
                sims = [
                    float(v @ s[:, 2 * c + t] / (np.linalg.norm(v) * np.linalg.norm(s[:, 2 * c + t])))
                    for t in range(2)
                ]
                assert got[c, j] == pytest.approx(-np.mean(sims), abs=1e-12)
        # negated similarity lies in [-1, 1]
        assert np.all(got >= -1.0 - 1e-12) and np.all(got <= 1.0 + 1e-12)


def test_baseline_tape_rows_match_numpy_twins():
    # training's loss distances and evaluation's distances are one path
    rng = np.random.default_rng(73)
    support_cols = [rng.standard_normal((5, 3)) for _ in range(3)]
    query = rng.standard_normal((5, 4))
    labels = np.array([1, 2, 3, 1])
    hyper = Hyper(3, 3, 4, 0.5, 0.0)
    support = np.hstack(support_cols)
    for head in (RegressionHead(), ProtoHead(), CosineHead()):
        _, dist = loss_and_distances(head, np.hstack([support, query]), labels, hyper)
        assert np.array_equal(dist, head.distances_np(support, query, hyper))


def test_every_head_defines_its_traced_methods_in_its_own_body():
    # perfbench patches these on each class; an inherited one is not found
    for cls in HEADS.values():
        assert "episode_loss" in vars(cls), cls.__name__
        assert "distances_np" in vars(cls), cls.__name__


def test_predict_breaks_ties_toward_the_lowest_index():
    dist = np.array([[1.0, 2.0], [1.0, 1.5], [2.0, 1.5]])
    assert np.array_equal(predict_np(dist), np.array([1, 2]))


def test_make_head_knows_all_heads():
    assert make_head("regression").name == "regression"
    assert make_head("proto").name == "proto"
    assert make_head("cosine").name == "cosine"
    with pytest.raises(ContractError):
        make_head("svm")
