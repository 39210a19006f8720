"""Independent numpy references shared by several test modules."""

import numpy as np

from fewshot.encoder import embed_np
from fewshot.episodes import Dataset
from fewshot.heads import predict_np
from fewshot.linalg import rng_from_seed


def lstsq_distances(s, queries, lambda1):
    """1 x B ridge residual norms of the queries to span(S), with the ridge
    coefficients from numpy's solver (for heads.ridge_residuals)."""
    gram = s.T @ s + lambda1 * np.eye(s.shape[1])
    resid = queries - s @ np.linalg.solve(gram, s.T @ queries)
    return np.sqrt(np.sum(resid * resid, axis=0, keepdims=True))


def ortho_penalty_np(supports):
    """Double-loop reference for heads.ortho_penalty (ordered pairs)."""
    total = 0.0
    norms = [float(np.sum(s * s)) for s in supports]
    for i, si in enumerate(supports):
        for j, sj in enumerate(supports):
            if i == j:
                continue
            cross = si.T @ sj
            total += float(np.sum(cross * cross)) / (norms[i] * norms[j])
    return total


def cross_entropy_np(d, rows):
    """Value and adjoint (for a unit output adjoint) of heads.cross_entropy,
    for the 0-based true ``rows`` (the labels less 1), computed op by op in the order of the composed route it replaced: pick
    the true rows, negate, column log-sum-exp, add, sum, scale by 1/B; then
    back through scale, sum, add, log-sum-exp, negate and pick, accumulating
    into d in that reverse order."""
    b = d.shape[1]
    cols = np.arange(b)
    c = float(1.0 / b)
    picked = d[rows, cols].reshape(1, b)
    neg = d * -1.0
    m = np.max(neg, axis=0, keepdims=True)
    e = np.exp(neg - m)
    total = np.sum(e, axis=0, keepdims=True)
    soft = e / total
    lse = m + np.log(total)
    value = np.array([[float(np.sum(picked + lse))]]) * c
    g_sum = np.ones((1, 1)) * c
    g_add = np.full((1, b), float(g_sum[0, 0]))
    grad = (soft * g_add) * -1.0
    pick_adjoint = np.zeros(d.shape)
    pick_adjoint[rows, cols] = g_add[0, :]
    return value, grad + pick_adjoint


def episode_accuracy_np(params, head, episode, hyper):
    """One episode scored alone, embedding its own support and queries: the
    per-episode loop that the stacked ``train.episode_accuracy`` replaced."""
    support = embed_np(params, episode.support_x)
    query = embed_np(params, episode.query_x)
    predicted = predict_np(head.distances_np(support, query, hyper))
    return float(np.mean(predicted == episode.query_y))


def per_episode_accuracies_np(params, head, episodes, hyper):
    """``episode_accuracy_np`` of each episode, in order."""
    return np.array([episode_accuracy_np(params, head, ep, hyper) for ep in episodes])


def synth_gaussian_loop(seed, n_classes, per_class, dim, spread=1.0,
                        within_std=1.0, offset=0.0, name="synth"):
    """``episodes.synth_gaussian`` as a per-class draw loop whose labels go
    through ``Dataset``'s own index build: the draw order it promises (the
    centers, then class by class a D x per_class block of noise)."""
    rng = seed if isinstance(seed, np.random.Generator) else rng_from_seed(seed)
    centers = rng.uniform(-spread, spread, size=(dim, n_classes)) + offset
    features = np.empty((dim, n_classes * per_class))
    labels = []
    for c in range(n_classes):
        start = c * per_class
        noise = rng.standard_normal((dim, per_class)) * within_std
        features[:, start : start + per_class] = centers[:, [c]] + noise
        labels.extend([c + 1] * per_class)
    return Dataset(name, features, labels)
