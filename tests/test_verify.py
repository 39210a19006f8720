"""The built-in verification suites must pass and report cleanly."""

import numpy as np
import pytest

from fewshot import autodiff, heads, linalg, train, verify
from fewshot.episodes import Episode
from fewshot.errors import ShapeError


def test_iterative_minimizer_solves_a_hand_system():
    # S = e1, lambda1 = 1: minimize (e1 - a)^2 ... -> a = s.e / (s.s + 1) = 0.5
    s = np.array([[1.0], [0.0]])
    e = np.array([[1.0], [0.0]])
    a = verify.ridge_argmin_iterative(s, e, 1.0)
    assert abs(float(a[0, 0]) - 0.5) < 1e-10
    assert verify.ridge_distance_iterative(s, e, 1.0) == np.linalg.norm(e - s * 0.5)


def test_iterative_minimizer_matches_normal_equations():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = rng.standard_normal((8, 3))
        e = rng.standard_normal((8, 1))
        lam = float(rng.uniform(0.0, 1.0))
        a = verify.ridge_argmin_iterative(s, e, lam)
        direct = np.linalg.solve(s.T @ s + lam * np.eye(3), s.T @ e)
        assert np.max(np.abs(a - direct)) < 1e-9


def test_iterative_minimizer_rejects_a_wide_query():
    with pytest.raises(ShapeError, match="column vector"):
        verify.ridge_argmin_iterative(np.eye(3), np.zeros((3, 2)), 1.0)


def test_check_result_lines_are_scannable():
    good = verify.CheckResult("thing", True, "fine")
    bad = verify.CheckResult("thing", False, "broken")
    assert good.line() == "[pass] thing: fine"
    assert bad.line() == "[FAIL] thing: broken"


def test_all_suites_pass():
    results = verify.run_all_checks(seed=0)
    assert len(results) == 5
    for result in results:
        assert result.passed, result.line()


def test_gradient_suite_runs_one_backward_pass_per_trial(monkeypatch):
    # the finite-difference losses are values only; just the analytic
    # gradient of each trial differentiates
    calls = []
    backward = autodiff.backward

    def counted(*args, **kwargs):
        calls.append(1)
        return backward(*args, **kwargs)

    monkeypatch.setattr(autodiff, "backward", counted)
    assert verify.check_gradient_fidelity(0).passed
    assert len(calls) == 20


def test_gradient_suite_covers_every_head_one_episode_at_a_time(monkeypatch):
    seen = set()
    episode_gradient = train.episode_gradient

    def recorded(params, episode, head, hyper, *args, **kwargs):
        seen.add((head.name, type(episode)))
        return episode_gradient(params, episode, head, hyper, *args, **kwargs)

    monkeypatch.setattr(train, "episode_gradient", recorded)
    result = verify.check_gradient_fidelity(0)
    assert result.passed, result.line()
    assert seen == {(name, Episode) for name in ("regression", "proto", "cosine")}


def test_the_projector_oracle_leaves_the_package_factorization_alone(monkeypatch):
    # the projection-law and posterior suites hold the package's ridge
    # distances to this projector, so numpy's solver builds it
    def refused(*args, **kwargs):
        raise AssertionError("the oracle called the package's Cholesky route")

    monkeypatch.setattr(linalg, "cholesky", refused)
    monkeypatch.setattr(linalg, "solve_with_factor", refused)
    s = np.random.default_rng(0).standard_normal((6, 2))
    expected = s @ np.linalg.inv(s.T @ s + 1e-3 * np.eye(2)) @ s.T
    assert np.allclose(verify.build_projector_np(s, 1e-3), expected, rtol=1e-12, atol=0)


def test_posterior_suite_checks_the_package_posterior(monkeypatch):
    # a cross-entropy off by 0.1 for more than three classes: the projector
    # comparison scores three classes, so only the trials can see it
    cross_entropy = heads.cross_entropy

    def off_above_three(d, labels):
        loss, back = cross_entropy(d, labels)
        return (loss + 0.1 if d.shape[0] > 3 else loss), back

    assert verify.check_posterior_contracts(0).passed
    monkeypatch.setattr(heads, "cross_entropy", off_above_three)
    result = verify.check_posterior_contracts(0)
    assert not result.passed
    assert "posterior sum off by" in result.detail


def test_projection_law_suite_checks_the_package_distance(monkeypatch):
    # a distance off by one part in a million keeps every law that the
    # projector or a ratio of distances states; only the comparison with
    # ||e - P e|| can see it
    ridge_residuals = heads.ridge_residuals

    def scaled(*args, **kwargs):
        d, back = ridge_residuals(*args, **kwargs)
        return d * (1.0 + 1e-6), back

    assert verify.check_projection_laws(0).passed
    monkeypatch.setattr(verify, "ridge_residuals", scaled)
    result = verify.check_projection_laws(0)
    assert not result.passed
    assert "distance vs ||e - P e|| off by" in result.detail


def test_closed_form_suite_checks_the_distance_past_the_embedding_dim(monkeypatch):
    # the iterative minimizer's instances stop at K = 5; only the push-through
    # comparison reaches K >= M = 16
    ridge_residuals = heads.ridge_residuals

    def off_past_m(support, query, n, lambda1):
        d, back = ridge_residuals(support, query, n, lambda1)
        return (d * (1.0 + 1e-7) if support.shape[-1] >= support.shape[-2] else d), back

    clean = verify.check_closed_form_oracle(0)
    assert clean.passed
    monkeypatch.setattr(verify, "ridge_residuals", off_past_m)
    result = verify.check_closed_form_oracle(0)
    assert not result.passed
    assert result.detail.split(";")[0] == clean.detail.split(";")[0]
