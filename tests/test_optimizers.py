import numpy as np
import pytest

from epicast import (
    adam_minimize,
    lbfgs_minimize,
    sgd_minimize,
    two_loop_direction,
)
from epicast import optimizers
from epicast.errors import NonFiniteObjective
from epicast.optimizers import WOLFE_C1, WOLFE_C2


def quadratic(center):
    c = np.asarray(center, dtype=float)

    def fn(theta):
        d = theta - c
        return 0.5 * float(d @ d), d

    return fn


def spd_quadratic(a_matrix, b):
    def fn(theta):
        g = a_matrix @ theta - b
        return 0.5 * float(theta @ a_matrix @ theta) - float(b @ theta), g

    return fn


def rosenbrock():
    def fn(t):
        x, y = t
        f = (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2
        g = np.array(
            [
                -2.0 * (1.0 - x) - 400.0 * x * (y - x * x),
                200.0 * (y - x * x),
            ]
        )
        return f, g

    return fn


def random_spd(rng, dim, cond=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = np.linspace(1.0, cond, dim)
    return q @ np.diag(eigs) @ q.T


class TestLbfgs:
    def test_isotropic_quadratic_fast(self):
        obj = quadratic([3.0, -1.0, 2.0])
        res = lbfgs_minimize(
            obj, np.zeros(3), max_iterations=500, grad_tolerance=1e-10
        )
        assert res.status == "converged"
        assert res.iterations <= 5
        assert res.grad_norm < 1e-10
        assert res.theta == pytest.approx([3.0, -1.0, 2.0])

    def test_rosenbrock(self):
        res = lbfgs_minimize(
            rosenbrock(),
            np.array([-1.2, 1.0]),
            max_iterations=200,
            grad_tolerance=1e-9,
        )
        assert res.theta == pytest.approx([1.0, 1.0], abs=1e-6)
        assert res.iterations <= 200

    def test_already_optimal(self):
        obj = quadratic([1.0, 2.0])
        res = lbfgs_minimize(obj, np.array([1.0, 2.0]), max_iterations=500)
        assert res.status == "converged"
        assert res.iterations == 0
        assert res.theta == pytest.approx([1.0, 2.0])

    def test_stationary_start_at_zero_tolerance(self):
        # g = 0 meets a zero tolerance; no step is sized by 1 / sum|g|
        res = lbfgs_minimize(
            lambda t: (float(t @ t), 2 * t),
            np.zeros(2),
            max_iterations=500,
            grad_tolerance=0.0,
        )
        assert (res.status, res.iterations) == ("converged", 0)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_config_rejects_bad_grad_tolerance(self, tol):
        # no gradient norm is at most a negative or NaN tolerance
        with pytest.raises(ValueError, match="grad_tolerance"):
            lbfgs_minimize(
                quadratic([1.0]), np.zeros(1), max_iterations=500, grad_tolerance=tol
            )

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_config_rejects_fewer_than_one_iteration(self, iterations):
        # a budget below one would return max_iterations without a step
        with pytest.raises(ValueError, match="max_iterations"):
            lbfgs_minimize(quadratic([1.0]), np.zeros(1), max_iterations=iterations)

    def test_trace_non_increasing(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 12))
            a = random_spd(rng, dim, cond=50.0)
            obj = spd_quadratic(a, rng.normal(size=dim))
            res = lbfgs_minimize(obj, rng.normal(size=dim), max_iterations=500)
            diffs = np.diff(res.trace)
            assert np.all(diffs <= 1e-12)

    def test_accepted_steps_satisfy_strong_wolfe(self, rng):
        # The run is deterministic, so stopping it after k iterations gives
        # its k-th iterate; each step s between iterates must satisfy both
        # strong-Wolfe conditions.
        objs = [
            spd_quadratic(random_spd(rng, 6, 30.0), rng.normal(size=6)),
            rosenbrock(),
        ]
        starts = [rng.normal(size=6), np.array([-1.2, 1.0])]
        for obj, theta0 in zip(objs, starts):
            thetas = [theta0]
            for k in range(1, 31):
                res = lbfgs_minimize(obj, theta0, max_iterations=k)
                if res.iterations < k:
                    break
                thetas.append(res.theta)
            assert len(thetas) > 2, "expected several accepted steps"
            for before, after in zip(thetas, thetas[1:]):
                f0, g0 = obj(before)
                f1, g1 = obj(after)
                s = after - before
                assert f1 <= f0 + WOLFE_C1 * float(g0 @ s) + 1e-12
                assert abs(float(g1 @ s)) <= WOLFE_C2 * abs(float(g0 @ s)) + 1e-12

    def test_two_loop_reproduces_newton_direction(self, rng):
        # after dim updates with conjugate exact-curvature pairs the
        # implicit inverse Hessian equals the true inverse; checked
        # against a dense solve
        for dim in (2, 3, 4, 5):
            a = random_spd(rng, dim, cond=8.0)
            # build A-conjugate directions from the standard basis
            s_pairs: list[np.ndarray] = []
            for k in range(dim):
                v = np.eye(dim)[k].copy()
                for s in s_pairs:
                    v -= (s @ a @ v) / (s @ a @ s) * s
                s_pairs.append(v)
            y_pairs = [a @ s for s in s_pairs]
            g = rng.normal(size=dim)
            direction = two_loop_direction(g, s_pairs, y_pairs)
            assert direction == pytest.approx(-np.linalg.solve(a, g), rel=1e-8)

    def test_two_loop_without_pairs_is_steepest_descent(self):
        g = np.array([1.0, -2.0])
        assert two_loop_direction(g, [], []) == pytest.approx(-g)

    def test_non_descent_direction_falls_back_to_steepest_descent(self, monkeypatch):
        # A two-loop direction that points uphill is replaced by -g, so
        # returning +g runs exactly as returning -g does.
        def run(sign):
            evals = []

            def fn(theta):
                evals.append(theta.tobytes())
                return rosenbrock()(theta)

            monkeypatch.setattr(
                optimizers, "two_loop_direction", lambda g, s, y: sign * g
            )
            res = lbfgs_minimize(
                fn, np.array([-1.2, 1.0]), max_iterations=40
            )
            return res, evals

        uphill, uphill_evals = run(1.0)
        downhill, downhill_evals = run(-1.0)
        assert uphill.iterations == downhill.iterations == 40
        assert uphill_evals == downhill_evals
        assert uphill.theta.tobytes() == downhill.theta.tobytes()
        assert (uphill.trace, uphill.status, uphill.grad_norm) == (
            downhill.trace, downhill.status, downhill.grad_norm
        )

    def test_line_search_failure_flagged(self):
        # a pure linear objective never satisfies the curvature condition
        def fn(theta):
            return float(-theta[0]), np.array([-1.0])

        res = lbfgs_minimize(fn, np.zeros(1), max_iterations=500)
        assert res.status == "line_search_failed"
        assert res.status != "converged"
        assert np.isfinite(res.theta).all()

    def test_non_finite_region_backed_off(self):
        # objective is finite only for x < 1; the search must not accept
        # a point beyond the barrier
        def fn(theta):
            x = float(theta[0])
            if x >= 1.0:
                return np.inf, np.array([np.nan])
            return -np.log(1.0 - x) + 0.5 * x * x, np.array([1.0 / (1.0 - x) + x])

        res = lbfgs_minimize(fn, np.array([0.0]), max_iterations=500)
        assert np.all(np.isfinite(res.trace))
        assert np.all(np.diff(res.trace) <= 1e-12)

    def test_non_finite_start_raises(self):
        def fn(theta):
            return np.nan, theta

        with pytest.raises(NonFiniteObjective):
            lbfgs_minimize(fn, np.zeros(2), max_iterations=500)

    def test_determinism(self, rng):
        a = random_spd(rng, 5)
        b = rng.normal(size=5)
        theta0 = rng.normal(size=5)
        r1 = lbfgs_minimize(spd_quadratic(a, b), theta0.copy(), max_iterations=500)
        r2 = lbfgs_minimize(spd_quadratic(a, b), theta0.copy(), max_iterations=500)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.theta, r2.theta)

    def test_early_stop_on_stall(self):
        # a flat-enough valley triggers the loss-improvement stop
        def fn(theta):
            return 1.0 + 1e-12 * float(theta[0] ** 2), np.array([2e-12 * theta[0]])

        res = lbfgs_minimize(
            fn,
            np.array([1.0]),
            max_iterations=500,
            grad_tolerance=1e-30,
            tolerance=1e-9,
        )
        assert res.status in ("stalled", "line_search_failed")
        assert res.iterations < 500


class TestSgd:
    def test_monotone_below_stability_bound(self, rng):
        a = random_spd(rng, 4, cond=5.0)
        lam_max = float(np.linalg.eigvalsh(a).max())
        obj = spd_quadratic(a, rng.normal(size=4))
        res = sgd_minimize(obj, rng.normal(size=4), 0.9 / lam_max, 200)
        assert np.all(np.diff(res.trace) <= 1e-12)

    def test_zero_learning_rate_keeps_theta(self):
        obj = quadratic([5.0, 5.0])
        theta0 = np.array([1.0, 2.0])
        res = sgd_minimize(obj, theta0, 0.0, 50)
        assert np.array_equal(res.theta, theta0)
        assert res.iterations == 50

    def test_exact_iteration_count(self):
        res = sgd_minimize(quadratic([1.0]), np.zeros(1), 0.1, 37)
        assert res.iterations == 37
        assert len(res.trace) == 38  # initial loss plus one per step

    def test_divergence_reports_iteration(self):
        def fn(theta):
            with np.errstate(over="ignore"):
                return float(theta[0] ** 2), np.array([2.0 * theta[0]])

        with pytest.raises(NonFiniteObjective) as exc:
            sgd_minimize(fn, np.array([1.0]), 1e6, 10000)
        assert exc.value.iteration > 0

    @staticmethod
    def rising(theta):
        # at learning rate 1, sgd steps theta <- -3 theta on f = 2 theta^2,
        # so the loss grows 9-fold a step and overflows at step 323
        # (2 * 9^323 > 1.8e308)
        with np.errstate(over="ignore"):
            return float(2.0 * theta[0] ** 2), np.array([4.0 * theta[0]])

    def test_rising_loss_is_not_a_stall(self):
        with pytest.raises(NonFiniteObjective, match="at iteration 323") as exc:
            sgd_minimize(self.rising, np.array([1.0]), 1.0, 1000, tolerance=1e-6)
        assert exc.value.iteration == 323

    def test_zero_tolerance_never_stops(self):
        res = sgd_minimize(self.rising, np.array([1.0]), 1.0, 40, tolerance=0.0)
        assert (res.status, res.iterations) == ("max_iterations", 40)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            sgd_minimize(quadratic([0.0]), np.zeros(1), -0.1, 10)

    def test_determinism(self, rng):
        a = random_spd(rng, 3)
        b = rng.normal(size=3)
        theta0 = rng.normal(size=3)
        r1 = sgd_minimize(spd_quadratic(a, b), theta0.copy(), 0.05, 100)
        r2 = sgd_minimize(spd_quadratic(a, b), theta0.copy(), 0.05, 100)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.theta, r2.theta)


class TestAdam:
    def test_quadratic_convergence(self, rng):
        a = random_spd(rng, 6, cond=20.0)
        obj = spd_quadratic(a, rng.normal(size=6))
        res = adam_minimize(
            obj, rng.normal(size=6), learning_rate=1e-2, iterations=5000
        )
        assert res.grad_norm < 1e-4

    def test_early_stop(self):
        res = adam_minimize(
            quadratic([0.0]),
            np.zeros(1),
            iterations=5000,
            tolerance=1e-12,
        )
        assert res.status == "stalled"
        assert res.iterations < 5000

    def test_exact_iteration_count(self):
        res = adam_minimize(quadratic([3.0]), np.zeros(1), iterations=25)
        assert res.iterations == 25
        assert len(res.trace) == 26

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            adam_minimize(quadratic([0.0]), np.zeros(1), -0.1, 10)

    def test_determinism(self, rng):
        theta0 = rng.normal(size=4)
        obj = quadratic(rng.normal(size=4))
        r1 = adam_minimize(obj, theta0.copy(), iterations=300)
        r2 = adam_minimize(obj, theta0.copy(), iterations=300)
        assert r1.trace == r2.trace


class TestCubicStep:
    """_cubic_step returns None, and _zoom bisects instead, when the
    endpoint data pin down no interior minimum."""

    def test_non_finite_endpoint(self):
        assert optimizers._cubic_step(0.0, np.nan, -1.0, 1.0, 0.0, 1.0) is None

    def test_negative_discriminant(self):
        # d1 = 0 and g_lo * g_hi = 1, so d1^2 - g_lo g_hi < 0
        assert optimizers._cubic_step(0.0, 0.0, 1.0, 1.0, 2.0 / 3.0, 1.0) is None

    def test_vanishing_denominator(self):
        # flat ends: every derivative and the discriminant are zero
        assert optimizers._cubic_step(0.0, 1.0, 0.0, 1.0, 1.0, 0.0) is None


class TestZoom:
    def test_collapsed_bracket_fails_without_an_evaluation(self):
        obj = quadratic([1.0])
        f0, g0 = obj(np.zeros(1))
        search = optimizers._LineSearch(obj, np.zeros(1), -g0, f0, -float(g0 @ g0))
        assert search._zoom(0.5, 0.125, -0.5, 0.5, 0.125, -0.5) is None
        assert search.evals == 0
