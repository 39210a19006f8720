"""Self-verification suites behind the ``check`` CLI command.

Each suite pins the production code against an independent route:

- the closed-form regression distance against an iterative minimizer of
  the (ridge-)regression objective, run to convergence, and against the
  push-through form lam1 ||(S S^T + lam1 I)^{-1} e|| from numpy's solver,
  at K up to and past the embedding dimension M;
- the algebraic projection laws (symmetry, idempotence, spectrum bounds,
  invariance under right-multiplication of the support matrix), and the
  distance against the residual ||e - P e|| of numpy's projector P;
- analytic gradients of the full episode loss against central finite
  differences, coordinate by coordinate;
- posterior normalization/ordering contracts;
- the Adam update against a hand-stepped oracle.

Suites return CheckResult records so the CLI can print pass/fail counts
and exit nonzero exactly when something failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import heads, linalg, train
from .encoder import EncoderParams, Layer, forward, init_encoder
from .episodes import Episode
from .errors import ShapeError
from .heads import Hyper, ridge_residuals
from .train import AdamState, adam_update


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


# -- oracle: iterative ridge minimizer ---------------------------------------


def ridge_argmin_iterative(s: np.ndarray, e: np.ndarray, lambda1: float,
                           max_iter: int = 200000) -> np.ndarray:
    """Minimize ||e - S a||^2 + lambda1 ||a||^2 by steepest descent with
    exact line search; independent of the Cholesky path."""
    s = linalg.as_matrix(s)
    e = linalg.as_matrix(e)
    if e.shape[1] != 1:
        raise ShapeError(f"expected a column vector, got shape {e.shape}")
    k = s.shape[1]
    gram = s.T @ s + lambda1 * np.eye(k)
    rhs = s.T @ e
    a = np.zeros((k, 1))
    tol = 1e-13 * (1.0 + float(np.linalg.norm(rhs)))
    for _ in range(max_iter):
        g = 2.0 * (gram @ a - rhs)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            break
        curv = float((g.T @ gram @ g).item())
        if curv <= 0.0:
            break
        a = a - (gnorm * gnorm / (2.0 * curv)) * g
    return a


def ridge_distance_iterative(s: np.ndarray, e: np.ndarray, lambda1: float) -> float:
    a = ridge_argmin_iterative(s, e, lambda1)
    return float(np.linalg.norm(e - s @ a))


def _distance(s: np.ndarray, e: np.ndarray, lambda1: float) -> float:
    """The production regression distance of one query column."""
    return ridge_residuals(s, e, 1, lambda1)[0].item()


def check_closed_form_oracle(seed: int = 0, instances: int = 200) -> CheckResult:
    """Closed-form regression distance vs the iterative minimizer, then, from
    a stream of its own, vs the push-through form at K in {1, 2, 5, 16, 20}."""
    rng = linalg.rng_from_seed(seed)
    m = 16
    worst = 0.0
    for i in range(instances):
        k = int(rng.choice([1, 2, 5]))
        lambda1 = 0.0 if i % 2 == 0 else 1e-3
        s = rng.standard_normal((m, k))
        e = rng.standard_normal((m, 1))
        closed = _distance(s, e, lambda1)
        oracle = ridge_distance_iterative(s, e, lambda1)
        rel = abs(closed - oracle) / max(abs(oracle), 1e-12)
        worst = max(worst, rel)
    rng = linalg.named_stream(seed, "push-through")
    worst_push = 0.0
    for k in (1, 2, 5, 16, 20):
        for lambda1 in (10.0, 1e-3):
            for _ in range(10):
                s = rng.standard_normal((m, k))
                e = rng.standard_normal((m, 1))
                oracle = lambda1 * float(np.linalg.norm(
                    np.linalg.solve(s @ s.T + lambda1 * np.eye(m), e)))
                worst_push = max(worst_push, abs(_distance(s, e, lambda1) - oracle) / oracle)
    passed = worst < 1e-6 and worst_push < 1e-9
    return CheckResult(
        "closed-form distance vs iterative minimizer", passed,
        f"{instances} instances, worst relative error {worst:.3e} (limit 1e-6); "
        f"push-through form at K 1 to 20, M 16: 100 instances, worst {worst_push:.3e} "
        "(limit 1e-9)")


# -- oracles: the projector and the posterior in plain numpy -----------------


def build_projector_np(s: np.ndarray, lambda1: float) -> np.ndarray:
    """P = S (S^T S + lambda1 I)^{-1} S^T: the M x M projector in plain numpy.

    Nothing scores with it; it is the reference for the projection-law and
    posterior checks, since ||e - P e|| is the regression distance, and
    numpy's solver builds it, independently of the package's Cholesky.
    """
    s = linalg.as_matrix(s)
    gram = s.T @ s
    if lambda1 != 0.0:
        gram = gram + lambda1 * np.eye(s.shape[1])
    return s @ np.linalg.solve(gram, s.T)


def softmax_neg_np(distances: np.ndarray) -> np.ndarray:
    """exp(-d) / sum exp(-d) along axis 0, stabilized."""
    neg = -linalg.as_matrix(distances)
    m = np.max(neg, axis=0, keepdims=True)
    e = np.exp(neg - m)
    return e / np.sum(e, axis=0, keepdims=True)


# -- projection laws ---------------------------------------------------------


def check_projection_laws(seed: int = 0, trials: int = 100) -> CheckResult:
    rng = linalg.rng_from_seed(seed)
    m = 16
    failures = []
    worst_sym = worst_idem = worst_inv = worst_res = 0.0
    eig_lo, eig_hi = np.inf, -np.inf
    for _ in range(trials):
        k = int(rng.choice([1, 2, 5]))
        s = rng.standard_normal((m, k))
        e = rng.standard_normal((m, 1))

        p = build_projector_np(s, 0.0)
        pn = float(np.linalg.norm(p))
        worst_sym = max(worst_sym, float(np.linalg.norm(p - p.T)) / pn)
        worst_idem = max(worst_idem, float(np.linalg.norm(p @ p - p)) / pn)
        eigs = np.linalg.eigvalsh(0.5 * (p + p.T))
        eig_lo = min(eig_lo, float(eigs.min()))
        eig_hi = max(eig_hi, float(eigs.max()))

        p_ridge = build_projector_np(s, 1e-3)
        ridge_eigs = np.linalg.eigvalsh(0.5 * (p_ridge + p_ridge.T))
        if float(ridge_eigs.max()) >= 1.0:
            failures.append("ridge projector eigenvalue reached 1")
        for lam, proj in ((0.0, p), (1e-3, p_ridge)):
            ref = float(np.linalg.norm(e - proj @ e))
            worst_res = max(worst_res, abs(_distance(s, e, lam) - ref) / max(ref, 1e-12))

        r = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
        d0 = _distance(s, e, 0.0)
        d1 = _distance(s @ r, e, 0.0)
        worst_inv = max(worst_inv, abs(d0 - d1) / max(abs(d0), 1e-12))

        # distance is non-decreasing in lambda1 and <= ||e||
        prev = -np.inf
        for lam in (0.0, 1e-3, 1e-1, 1.0, 10.0):
            d = _distance(s, e, lam)
            if d < prev - 1e-10:
                failures.append(f"distance decreased as lambda1 grew ({prev} -> {d})")
            if d > float(np.linalg.norm(e)) + 1e-10:
                failures.append("distance exceeded ||e||")
            prev = d
        d_tiny = _distance(s, e, 1e-9)
        d_exact = _distance(s, e, 0.0)
        if abs(d_tiny - d_exact) / max(d_exact, 1e-12) > 1e-6:
            failures.append("lambda1 -> 0 limit mismatch")

    if worst_sym > 1e-10:
        failures.append(f"symmetry residual {worst_sym:.3e} > 1e-10")
    if worst_idem > 1e-8:
        failures.append(f"idempotence residual {worst_idem:.3e} > 1e-8")
    if eig_lo < -1e-10 or eig_hi > 1.0 + 1e-10:
        failures.append(f"eigenvalues outside [0,1]: [{eig_lo:.3e}, {eig_hi:.3e}]")
    if worst_inv > 1e-8:
        failures.append(f"right-multiplication invariance residual {worst_inv:.3e} > 1e-8")
    if worst_res > 1e-10:
        failures.append(f"distance vs ||e - P e|| off by {worst_res:.3e} > 1e-10")
    detail = (f"{trials} trials; sym {worst_sym:.2e}, idem {worst_idem:.2e}, "
              f"eigs [{eig_lo:.2e}, {1.0 - eig_hi:+.2e}+1], invariance {worst_inv:.2e}, "
              f"distance vs ||e - P e|| {worst_res:.2e}")
    if failures:
        detail = "; ".join(sorted(set(failures)))
    return CheckResult("projection operator laws", not failures, detail)


# -- gradient fidelity -------------------------------------------------------


def _random_episode(rng: np.random.Generator, n: int, k: int, q: int, d: int) -> Episode:
    support = rng.standard_normal((d, n * k))
    query = rng.standard_normal((d, n * q))
    support_y = np.repeat(np.arange(1, n + 1), k)
    query_y = np.repeat(np.arange(1, n + 1), q)
    relabel = {c: c for c in range(1, n + 1)}
    return Episode(n, k, q, np.hstack([support, query]), support_y, query_y, relabel)


def check_gradient_fidelity(seed: int = 0, trials: int = 20,
                            h: float = 1e-4) -> CheckResult:
    """Analytic gradient of a training step's loss vs central differences,
    for every head: trial t trains head t mod 3 on one episode.

    Uses a tanh encoder so the loss is smooth everywhere (relu kinks would
    invalidate the finite-difference stencil). Relative error uses a 1e-2
    denominator floor: below that scale the comparison is absolute, which
    keeps finite-difference roundoff (~1e-8) from dominating coordinates
    whose true gradient is near zero.
    """
    worst = 0.0
    hyper = Hyper(2, 2, 2, lambda1=1e-3, lambda2=1e-2)
    for trial in range(trials):
        rng = linalg.rng_from_seed(seed + 1000 + trial)
        head = heads.make_head(tuple(heads.HEADS)[trial % 3])
        episode = _random_episode(rng, n=2, k=2, q=2, d=5)
        spec = [(5, 6, "tanh"), (6, 4, "none")]
        params = init_encoder(int(rng.integers(2**32)), spec)

        analytic, _ = train.episode_gradient(params, episode, head, hyper)
        flat = params.vector

        def loss_at(vec):   # the loss's value alone: no tape, no backward
            embedded = forward(vec, params, episode.x)[0]
            return head.episode_loss(embedded, episode.query_y, hyper)[0].item()

        for i in range(flat.size):
            plus = flat.copy()
            minus = flat.copy()
            plus[i] += h
            minus[i] -= h
            fd = (loss_at(plus) - loss_at(minus)) / (2.0 * h)
            rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-2)
            worst = max(worst, rel)
    passed = worst < 1e-4
    return CheckResult(
        "loss gradient vs central finite differences", passed,
        f"{trials} trials over 3 heads, one episode each, worst "
        f"per-coordinate relative error {worst:.3e} (limit 1e-4)")


# -- posterior contracts -----------------------------------------------------


def _loss_posterior(d: np.ndarray) -> np.ndarray:
    """The package's posterior of an N x 1 distance column, as N x 1: the
    exp of minus ``heads.cross_entropy`` at each 1-based label."""
    return np.array([[np.exp(-heads.cross_entropy(d, [c])[0].item())]
                     for c in range(1, d.shape[0] + 1)])


def check_posterior_contracts(seed: int = 0, trials: int = 100) -> CheckResult:
    """The laws of ``_loss_posterior``; ``softmax_neg_np`` is the oracle of
    its last comparison, over projector-route distances."""
    rng = linalg.rng_from_seed(seed)
    failures = []
    worst_sum = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        d = rng.uniform(0.0, 5.0, size=(n, 1))
        p = _loss_posterior(d)
        worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))
        if int(np.argmax(p[:, 0])) != int(np.argmin(d[:, 0])):
            failures.append("argmax(posterior) != argmin(distance)")
        uniform = _loss_posterior(np.full((n, 1), float(d[0, 0])))
        if np.max(np.abs(uniform - 1.0 / n)) > 1e-12:
            failures.append("equal distances did not give a uniform posterior")
    hand = _loss_posterior(np.array([[0.0], [1.0], [2.0]]))[:, 0]
    expected = np.array([0.66524, 0.24473, 0.09003])
    if np.max(np.abs(hand - expected)) > 1e-5:
        failures.append(f"softmax(0,-1,-2) = {hand} != {expected}")
    if worst_sum > 1e-12:
        failures.append(f"posterior sum off by {worst_sum:.3e}")

    # The loss is -log posterior of the labelled class; it agrees with
    # the numpy softmax over projector-route distances.
    rng2 = linalg.rng_from_seed(seed + 1)
    s_vals = [rng2.standard_normal((6, 2)) for _ in range(3)]
    e_val = rng2.standard_normal((6, 1))
    dist, _ = ridge_residuals(np.hstack(s_vals), e_val, 3, 1e-3)
    post = _loss_posterior(dist)[:, 0]
    projector_dist = np.array([
        [np.linalg.norm(e_val - build_projector_np(s, 1e-3) @ e_val)] for s in s_vals
    ])
    if np.max(np.abs(post - softmax_neg_np(projector_dist)[:, 0])) > 1e-12:
        failures.append("loss posterior disagrees with numpy posterior")

    detail = f"{trials} trials; max |sum - 1| = {worst_sum:.2e}"
    if failures:
        detail = "; ".join(sorted(set(failures)))
    return CheckResult("posterior contracts", not failures, detail)


# -- Adam oracle -------------------------------------------------------------


def check_adam_oracle() -> CheckResult:
    """Three Adam steps on fixed gradients vs a hand-stepped recurrence."""
    params = EncoderParams([Layer(np.array([[1.0, -2.0], [0.5, 3.0]]),
                                  np.array([[0.1], [-0.4]]), "none")])
    start = params.vector.copy()
    state = AdamState.for_params(params)
    lr = 1e-3
    grads_seq = [
        np.array([0.3, -1.0, 2.0, 0.0, 0.5, -0.25]),
        np.array([-0.7, 0.2, 0.1, 0.9, 0.0, 1.5]),
        np.array([1.1, 1.1, -0.3, 0.4, -2.0, 0.75]),
    ]
    for grad in grads_seq:
        params = adam_update(params, grad, state, lr)

    # independent recurrence, scalar by scalar
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    expected = []
    for i, p in enumerate(start):
        m = v = 0.0
        for t in range(1, 4):
            g = grads_seq[t - 1][i]
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        expected.append(p)
    diff = float(np.max(np.abs(params.vector - np.array(expected))))
    return CheckResult(
        "adam update vs hand-stepped oracle", diff < 1e-12,
        f"max coordinate difference {diff:.3e} after 3 steps (limit 1e-12)")


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    return [
        check_closed_form_oracle(seed),
        check_projection_laws(seed),
        check_gradient_fidelity(seed),
        check_posterior_contracts(seed),
        check_adam_oracle(),
    ]
