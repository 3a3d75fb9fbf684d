import json
import tracemalloc

import numpy as np
import pytest

from epicast import (
    KernelSpec,
    ScalerParams,
    StandardizedSplit,
    SupervisedSet,
    SvrConfig,
    SvrParams,
    SyntheticSpec,
    build_supervised,
    default_grid,
    gram_matrix,
    model_to_dict,
    resolve_gamma,
    standardized_split,
    svr_fit,
    svr_predict,
    synthetic_epidemic,
    train_on_split,
)
from epicast import svr
from epicast.errors import DegenerateKernelMatrix, DimensionMismatch
from epicast.svr import ROW_CACHE_BYTES, ZERO_TOL, _row_cache
from oracles import dual_objective, qp_oracle


def kernel_eval(k, u, v):
    """One kernel value from its textbook formula: the reference that
    gram_matrix is checked against."""
    a = np.asarray(u, dtype=float).ravel()
    b = np.asarray(v, dtype=float).ravel()
    if a.size != b.size:
        raise DimensionMismatch(f"u has {a.size} entries, v has {b.size}")
    if k.kind == "linear":
        return float(a @ b)
    if k.gamma is None:
        raise ValueError("gamma unresolved")
    if k.kind == "rbf":
        d = a - b
        return float(np.exp(-k.gamma * float(d @ d)))
    return float((k.gamma * float(a @ b) + k.coef0) ** k.degree)


def kkt_report(x, y, cfg, params):
    """Constraint residuals of a fitted dual solution."""
    beta = params.alphas
    k = gram_matrix(params.kernel, np.atleast_2d(x.T).T if x.ndim == 1 else x, x)
    pred = k @ beta + params.bias
    return {
        "sum": float(np.sum(beta)),
        "box_excess": float(np.max(np.abs(beta)) - cfg.c),
        "resid": pred - np.asarray(y, dtype=float),
    }


def reference_fit(x, y, cfg):
    """The solver loop written plainly: Gram columns, and the KKT masks and
    eps shifts rebuilt from beta on every pass. Returns (beta, bias,
    passes, converged)."""
    kernel = resolve_gamma(cfg.kernel, x)
    k_matrix = gram_matrix(kernel, x, x)
    c, eps = cfg.c, cfg.epsilon
    beta, q = np.zeros(len(y)), np.zeros(len(y))

    def working_pair():
        resid = q - y
        d_up = np.where(beta < c - ZERO_TOL, resid + np.where(beta >= 0.0, eps, -eps), np.inf)
        d_down = np.where(beta > -c + ZERO_TOL, resid + np.where(beta > 0.0, eps, -eps), -np.inf)
        i, j = int(np.argmin(d_up)), int(np.argmax(d_down))
        return i, float(d_up[i]), j, float(d_down[j])

    converged, passes = False, 0
    for passes in range(1, cfg.max_passes + 1):
        i, lo, j, hi = working_pair()
        violation = hi - lo
        if violation <= cfg.tolerance:
            converged = True
            break
        eta = float(k_matrix[i, i] + k_matrix[j, j] - 2.0 * k_matrix[i, j])
        t_max = min(
            c - beta[i] if beta[i] >= 0.0 else -beta[i],
            beta[j] + c if beta[j] <= 0.0 else beta[j],
        )
        t = min(t_max, violation / eta) if eta > 0.0 else t_max
        beta[i] += t
        beta[j] -= t
        q += t * (k_matrix[:, i] - k_matrix[:, j])
    _, lo, _, hi = working_pair()
    if np.isinf(lo) and np.isinf(hi):
        bias = float(np.mean(y - q))
    else:
        bias = -hi if np.isinf(lo) else -lo if np.isinf(hi) else -0.5 * (lo + hi)
    return beta, bias, passes, converged


def pair_loop_from_zero(x, y, cfg):
    """svr_fit's pair loop alone, from beta = 0 and q = 0: the solver that
    reference_fit writes plainly."""
    n = len(y)
    return svr._pair_loop(
        resolve_gamma(cfg.kernel, x), x, y, cfg, [0.0] * n, np.zeros(n), svr._cache_rows(n)
    )


class TestKernelEval:
    def test_linear_hand_value(self):
        k = KernelSpec(kind="linear")
        assert kernel_eval(k, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_rbf_identical_points(self):
        k = KernelSpec(kind="rbf", gamma=0.7)
        assert kernel_eval(k, np.array([1.5, -2.0]), np.array([1.5, -2.0])) == 1.0

    def test_rbf_hand_value(self):
        k = KernelSpec(kind="rbf", gamma=0.5)
        got = kernel_eval(k, np.array([0.0]), np.array([2.0]))
        assert got == pytest.approx(np.exp(-2.0))

    def test_poly_hand_value(self):
        k = KernelSpec(kind="poly", gamma=1.0, degree=2, coef0=1.0)
        got = kernel_eval(k, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert got == 144.0  # (11 + 1)^2

    def test_unresolved_gamma_rejected(self):
        with pytest.raises(ValueError):
            kernel_eval(KernelSpec(kind="rbf"), np.zeros(2), np.zeros(2))

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_eval(KernelSpec(kind="linear"), np.zeros(2), np.zeros(3))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="sigmoid")
        with pytest.raises(ValueError):
            KernelSpec(kind="rbf", gamma=0.0)
        with pytest.raises(ValueError):
            KernelSpec(kind="poly", degree=0)
        with pytest.raises(ValueError):  # too large for a float
            KernelSpec(kind="poly", degree=10**400)
        with pytest.raises(ValueError):
            KernelSpec(kind="rbf", gamma=10**400)

    def test_spec_needs_a_whole_degree(self):
        with pytest.raises(ValueError, match="whole number"):
            KernelSpec(kind="poly", degree=2.5)
        assert KernelSpec(kind="poly", degree=3.0).degree == 3


class TestGramMatrix:
    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(kind="linear"),
            KernelSpec(kind="rbf", gamma=0.3),
            KernelSpec(kind="poly", gamma=0.5, degree=3),
        ],
    )
    def test_matches_pairwise_eval(self, spec, rng):
        xa = rng.normal(size=(5, 3))
        xb = rng.normal(size=(4, 3))
        gram = gram_matrix(spec, xa, xb)
        for i in range(5):
            for j in range(4):
                assert gram[i, j] == pytest.approx(
                    kernel_eval(spec, xa[i], xb[j]), rel=1e-12, abs=1e-12
                )

    @pytest.mark.parametrize(
        "spec", [KernelSpec(kind="linear"), KernelSpec(kind="rbf", gamma=1.1)]
    )
    def test_positive_semidefinite(self, spec, rng):
        for _ in range(5):
            x = rng.normal(size=(int(rng.integers(2, 11)), 2))
            gram = gram_matrix(spec, x, x)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() >= -1e-8

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gram_matrix(KernelSpec(kind="linear"), np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("kind", ["rbf", "poly"])
    def test_unresolved_gamma_rejected(self, kind):
        with pytest.raises(ValueError, match="gamma unresolved"):
            gram_matrix(KernelSpec(kind=kind), np.zeros((2, 1)), np.zeros((2, 1)))

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(kind="linear"),
            KernelSpec(kind="rbf", gamma=0.1),
            KernelSpec(kind="poly", gamma=0.1, degree=3),
        ],
    )
    @pytest.mark.parametrize("n, d", [(301, 5), (257, 17)])
    def test_one_array_gives_exactly_symmetric_matrix(self, spec, n, d):
        # svr_fit reads Gram rows in place of columns, which needs K == K.T,
        # and builds each row alone, which needs it to equal that row of K
        x = np.random.default_rng(n).normal(size=(n, d))
        gram = gram_matrix(spec, x, x)
        assert np.array_equal(gram, gram.T)
        for start, end in ((7, 8), (40, 47), (n - 9, n)):
            assert gram_matrix(spec, x[start:end], x).tobytes() == gram[start:end].tobytes()

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(kind="rbf", gamma=0.3),
            KernelSpec(kind="poly", gamma=0.5, degree=2),
            KernelSpec(kind="poly", gamma=0.5, degree=7, coef0=0.5),
        ],
    )
    def test_in_place_build_matches_plain_formula(self, spec, rng):
        xa = rng.normal(size=(40, 3))
        xb = rng.normal(size=(30, 3))
        ab = sum(np.outer(xa[:, col], xb[:, col]) for col in range(3))  # in column order
        if spec.kind == "rbf":
            sq = np.sum(xa * xa, axis=1)[:, None] + np.sum(xb * xb, axis=1)[None, :] - 2.0 * ab
            plain = np.exp(-spec.gamma * np.maximum(sq, 0.0))
        else:
            plain = (spec.gamma * ab + spec.coef0) ** spec.degree
        assert gram_matrix(spec, xa, xb).tobytes() == plain.tobytes()

    @pytest.mark.parametrize(
        "spec, bound",
        [
            (KernelSpec(kind="rbf", gamma=0.5), 2.1),
            (KernelSpec(kind="poly", gamma=0.5, degree=5), 1.1),
            (KernelSpec(kind="linear"), 1.1),
        ],
    )
    def test_build_peak_memory(self, spec, bound, rng):
        # tracemalloc sees numpy buffers: the result plus any n x n temporary
        x = rng.normal(size=(1000, 1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            gram = gram_matrix(spec, x, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * gram.nbytes

    def test_zero_columns_give_the_empty_sum(self):
        # a.b over no columns is 0
        a, b = np.zeros((2, 0)), np.zeros((3, 0))
        assert np.array_equal(gram_matrix(KernelSpec(kind="linear"), a, b), np.zeros((2, 3)))
        assert np.array_equal(gram_matrix(KernelSpec(kind="rbf", gamma=0.5), a, b), np.ones((2, 3)))
        poly = KernelSpec(kind="poly", gamma=0.5, degree=3, coef0=2.0)
        assert np.array_equal(gram_matrix(poly, a, b), np.full((2, 3), 8.0))

    def test_one_dimensional_inputs_promoted(self):
        gram = gram_matrix(KernelSpec(kind="linear"), np.array([1.0, 2.0]), np.array([3.0]))
        assert gram.shape == (2, 1)
        assert gram[1, 0] == 6.0


class TestResolveGamma:
    def test_scale_heuristic_single_feature(self):
        k = resolve_gamma(KernelSpec(kind="rbf"), np.array([[0.0], [2.0]]))
        assert k.gamma == pytest.approx(1.0)  # var = 1, one feature

    def test_scale_heuristic_two_features(self):
        k = resolve_gamma(KernelSpec(kind="rbf"), np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert k.gamma == pytest.approx(0.5)

    def test_constant_data_falls_back_to_unit_variance(self):
        k = resolve_gamma(KernelSpec(kind="rbf"), np.ones((4, 2)))
        assert k.gamma == pytest.approx(0.5)

    def test_explicit_gamma_kept(self):
        k = resolve_gamma(KernelSpec(kind="rbf", gamma=3.0), np.zeros((3, 1)))
        assert k.gamma == 3.0

    def test_linear_untouched(self):
        k = resolve_gamma(KernelSpec(kind="linear"), np.zeros((3, 1)))
        assert k.gamma is None


class TestQpOracle:
    def test_two_point_hand_solution(self):
        # beta = (-0.8, 0.8) maximizes the dual at W = 0.32
        cfg = SvrConfig(kernel=KernelSpec(kind="linear"), c=1.0, epsilon=0.1)
        got = qp_oracle(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), cfg)
        assert got == pytest.approx(0.32, abs=1e-7)

    def test_all_inside_tube_gives_zero(self):
        cfg = SvrConfig(kernel=KernelSpec(kind="linear"), c=1.0, epsilon=1.0)
        got = qp_oracle(
            np.array([[0.0], [0.5], [1.0]]), np.array([0.0, 0.5, 1.0]), cfg
        )
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_single_row_is_zero(self):
        cfg = SvrConfig(kernel=KernelSpec(kind="linear"))
        assert qp_oracle(np.array([[1.0]]), np.array([2.0]), cfg) == 0.0

    def test_rejects_large_instances(self):
        cfg = SvrConfig()
        with pytest.raises(ValueError):
            qp_oracle(np.zeros((6, 1)), np.zeros(6), cfg)


class TestDualObjective:
    def test_hand_value(self):
        k = np.array([[0.0, 0.0], [0.0, 1.0]])
        beta = np.array([-0.8, 0.8])
        got = dual_objective(k, np.array([0.0, 1.0]), beta, 0.1)
        assert got == pytest.approx(0.32)

    def test_zero_vector_is_zero(self, rng):
        k = np.eye(4)
        assert dual_objective(k, rng.normal(size=4), np.zeros(4), 0.2) == 0.0


class TestSvrFit:
    def test_two_point_hand_solution(self):
        cfg = SvrConfig(kernel=KernelSpec(kind="linear"), c=1.0, epsilon=0.1)
        params = svr_fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), cfg)
        assert params.converged
        assert params.alphas == pytest.approx([-0.8, 0.8])
        assert params.bias == pytest.approx(0.1)
        assert params.support_vectors.shape == (2, 1)

    def test_flat_targets_inside_tube(self):
        # epsilon tube swallows every target: no support vectors, constant fit
        cfg = SvrConfig(kernel=KernelSpec(kind="linear"), c=1.0, epsilon=1.0)
        params = svr_fit(
            np.array([[0.0], [0.5], [1.0]]), np.array([0.0, 0.5, 1.0]), cfg
        )
        assert params.converged
        assert params.alphas == pytest.approx([0.0, 0.0, 0.0])
        assert params.bias == pytest.approx(0.5)
        assert params.support_vectors.shape == (0, 1)
        assert svr_predict(params, np.array([[9.0]]))[0] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(kind="linear"),
            KernelSpec(kind="rbf"),
            KernelSpec(kind="poly", degree=2),
        ],
    )
    def test_matches_exhaustive_oracle(self, spec, rng):
        for _ in range(4):
            n = int(rng.integers(2, 5))
            x = rng.normal(size=(n, 1))
            y = rng.normal(size=n)
            cfg = SvrConfig(
                kernel=spec,
                c=float(rng.uniform(0.5, 2.0)),
                epsilon=float(rng.uniform(0.05, 0.3)),
                tolerance=1e-8,
            )
            params = svr_fit(x, y, cfg)
            solved = dual_objective(
                gram_matrix(params.kernel, x, x), y, params.alphas, cfg.epsilon
            )
            assert solved == pytest.approx(qp_oracle(x, y, cfg), abs=1e-4)

    def test_duplicate_rows_handled(self):
        # identical rows make eta = 0 for that pair; the step must stay finite
        x = np.array([[0.0], [0.0], [1.0]])
        y = np.array([0.0, 0.4, 1.0])
        cfg = SvrConfig(kernel=KernelSpec(kind="linear"), c=1.0, epsilon=0.05, tolerance=1e-8)
        params = svr_fit(x, y, cfg)
        assert np.all(np.isfinite(params.alphas))
        assert np.isfinite(params.bias)
        solved = dual_objective(gram_matrix(params.kernel, x, x), y, params.alphas, cfg.epsilon)
        assert solved == pytest.approx(qp_oracle(x, y, cfg), abs=1e-4)

    def test_kkt_conditions(self, rng):
        x = rng.normal(size=(20, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=20)
        cfg = SvrConfig(kernel=KernelSpec(kind="rbf"), c=2.0, epsilon=0.1, tolerance=1e-8)
        params = svr_fit(x, y, cfg)
        report = kkt_report(x, y, cfg, params)
        assert abs(report["sum"]) < 1e-10
        assert report["box_excess"] <= 1e-8
        # strictly interior dual coefficients must sit on the tube boundary
        interior = (np.abs(params.alphas) > 1e-6) & (np.abs(params.alphas) < cfg.c - 1e-6)
        if np.any(interior):
            assert np.abs(np.abs(report["resid"][interior]) - cfg.epsilon).max() < 1e-4
        # every prediction residual beyond the tube needs a bound coefficient
        outside = np.abs(report["resid"]) > cfg.epsilon + 1e-4
        assert np.all(np.abs(np.abs(params.alphas[outside]) - cfg.c) < 1e-8)

    def test_row_order_invariance(self, rng):
        x = rng.normal(size=(12, 1))
        y = np.cos(2.0 * x[:, 0])
        cfg = SvrConfig(kernel=KernelSpec(kind="rbf", gamma=0.8), c=1.5,
                        epsilon=0.05, tolerance=1e-10)
        base = svr_fit(x, y, cfg)
        perm = rng.permutation(12)
        shuffled = svr_fit(x[perm], y[perm], cfg)
        queries = rng.normal(size=(5, 1))
        assert svr_predict(base, queries) == pytest.approx(
            svr_predict(shuffled, queries), abs=1e-6
        )

    def test_pass_budget_flags_not_converged(self, rng):
        # at zero tolerance a single pass cannot certify any start
        x = rng.normal(size=(15, 1))
        y = rng.normal(size=15)
        cfg = SvrConfig(
            kernel=KernelSpec(kind="rbf"), epsilon=0.01, tolerance=0.0, max_passes=1
        )
        params = svr_fit(x, y, cfg)
        assert not params.converged
        assert params.passes == 1
        out = svr_predict(params, x)
        assert np.all(np.isfinite(out))

    def test_stuck_pair_exit_is_json_clean(self):
        # Every violating pair can move, so the fit ends by the tolerance,
        # not by the budget or any other exit.
        rng = np.random.default_rng(60)
        data = SupervisedSet(
            rng.normal(size=(80, 1)), rng.normal(size=80), ("day_index",), "confirmed"
        )
        ident = ScalerParams(mean=np.zeros(1), scale=np.ones(1))
        split = StandardizedSplit(train=data, test=data, x_scaler=ident, y_scaler=ident)
        cfg = SvrConfig(kernel=KernelSpec(kind="linear"), c=0.1)
        model, _ = train_on_split("svr", cfg, split, ("day_index",), "confirmed")
        assert model.params.converged is True
        assert model.params.passes < cfg.max_passes
        json.dumps(model_to_dict(model))

    def test_each_pass_stops_at_zero(self):
        # A pass may bring a coefficient to zero but never across it, and a
        # run the budget stops reports every pass it made.
        rng = np.random.default_rng(7)
        for case in range(24):
            n = int(rng.integers(5, 16))
            x = rng.normal(size=(n, 1))
            y = rng.normal(size=n)
            kernel = KernelSpec(kind=("linear", "rbf", "poly")[case % 3], degree=3)
            previous = np.zeros(n)
            for k in range(1, 31):
                cfg = SvrConfig(kernel=kernel, tolerance=1e-8, max_passes=k)
                params = svr_fit(x, y, cfg)
                assert not np.any(previous * params.alphas < 0.0), (case, k)
                assert params.converged or params.passes == k
                previous = params.alphas

    def test_box_below_zero_tol_leaves_every_coefficient_at_zero(self, rng):
        x = rng.normal(size=(20, 1))
        y = rng.normal(size=20)
        params = svr_fit(x, y, SvrConfig(c=1e-12))
        # no coefficient can rise or fall, so the first pass ends the run
        assert params.converged is True
        assert params.passes == 1
        assert not np.any(params.alphas)
        assert params.bias == float(np.mean(y))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["none-can-rise", "none-can-fall"])
    def test_one_sided_bias(self, sign):
        # With c = 0.75 ZERO_TOL a coefficient can rise only below
        # c - ZERO_TOL = -0.25e-12 and fall only above 0.25e-12: of
        # sign * (0.4, -0.2, -0.2)e-12 only the first can move, in one
        # direction, so the loop stops at once and the bias comes from
        # that coefficient's side alone.
        c = 0.75 * ZERO_TOL
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.5, 1.0, 2.0])
        beta = [sign * 0.4e-12, sign * -0.2e-12, sign * -0.2e-12]
        kernel = KernelSpec(kind="linear")
        q = gram_matrix(kernel, x, x) @ np.array(beta)
        cfg = SvrConfig(kernel=kernel, c=c, epsilon=0.1)
        params = svr._pair_loop(kernel, x, y, cfg, list(beta), q.copy(), 3)
        assert params.converged is True
        assert params.passes == 1
        # -d_down[0] = y - q - eps when only it can fall; -d_up[0] = y - q + eps
        # when only it can rise
        assert params.bias == y[0] - q[0] - sign * 0.1

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(17)
        kernels = [
            KernelSpec(kind="rbf"),
            KernelSpec(kind="linear"),
            KernelSpec(kind="poly", degree=3),
            KernelSpec(kind="poly", degree=7),
        ]
        outcomes = set()
        for case in range(24):
            n = int(rng.integers(5, 40))
            x = rng.normal(size=(n, (1, 3)[case % 2]))
            y = rng.normal(size=n)
            cfg = SvrConfig(
                kernel=kernels[case // 2 % 4],
                c=(1e-12, 0.1, 1.0)[case % 3],
                epsilon=float(rng.uniform(0.0, 0.3)),
                tolerance=1e-8,
                max_passes=(40, 400)[case // 8 % 2],
            )
            params = pair_loop_from_zero(x, y, cfg)
            beta, bias, passes, converged = reference_fit(x, y, cfg)
            assert params.alphas.tobytes() == beta.tobytes(), case
            assert (params.bias, params.passes, params.converged) == (
                bias, passes, converged
            ), case
            outcomes.add(converged)
        assert outcomes == {True, False}  # both exits are compared

    def test_exhausted_grid_cell_matches_reference_loop(self, series, chrono_split):
        # The grid's scale: the 416-row train half of the 520-day series and
        # the poly-7 slot, where the pair loop from zero spends its whole
        # default budget.
        data = build_supervised(series, ("day_index",), "confirmed")
        train = standardized_split(data, chrono_split).train
        cfg = SvrConfig(kernel=KernelSpec(kind="poly", degree=7))
        params = pair_loop_from_zero(train.x, train.y, cfg)
        assert (train.x.shape[0], params.converged, params.passes) == (416, False, 10000)
        beta, bias, passes, converged = reference_fit(train.x, train.y, cfg)
        assert (params.alphas.tobytes(), params.bias, params.passes, params.converged) == (
            beta.tobytes(), bias, passes, converged
        )

    def test_overflowing_kernel_rejected(self):
        spec = KernelSpec(kind="poly", gamma=1.0, degree=7)
        x = np.array([[1e60], [2e60], [3e60]])
        with pytest.raises(DegenerateKernelMatrix):
            svr_fit(x, np.array([1.0, 2.0, 3.0]), SvrConfig(kernel=spec))

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    @pytest.mark.parametrize("kind", ["rbf", "poly"])
    def test_overflowing_variance_rejected(self, kind, scale):
        # var(x) overflows, so the default gamma 1 / var(x) cannot be formed
        x = np.array([[1.0], [2.0], [3.0]]) * scale
        with pytest.raises(DegenerateKernelMatrix):
            svr_fit(x, np.array([1.0, 2.0, 3.0]), SvrConfig(kernel=KernelSpec(kind=kind)))

    @pytest.mark.parametrize("width", [1, 2], ids=["one-column", "two-columns"])
    def test_finite_gram_beyond_the_certificate_fits(self, width):
        # gamma * a.b = 1e200 cancels coef0 exactly, so every entry is 0**7,
        # but the bound gamma * max|x|^2 + |coef0| = 2e200 proves nothing.
        x = np.zeros((3, width))
        x[:, 0] = 1e100
        spec = KernelSpec(kind="poly", gamma=1.0, degree=7, coef0=-(1e100 * 1e100))
        params = svr_fit(x, np.array([1.0, 2.0, 3.0]), SvrConfig(kernel=spec))
        assert np.all(np.isfinite(params.alphas))

    @pytest.mark.parametrize("width", [1, 2], ids=["one-column", "two-columns"])
    def test_rbf_infinity_minus_infinity_rejected(self, width):
        # |a|^2 + |b|^2 and 2 a.b both overflow, so the distance is NaN.
        x = np.zeros((3, width))
        x[:, 0] = [1e200, 2e200, 3e200]
        spec = KernelSpec(kind="rbf", gamma=1.0)
        with pytest.raises(DegenerateKernelMatrix):
            svr_fit(x, np.array([1.0, 2.0, 3.0]), SvrConfig(kernel=spec))

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(kind="linear"),
            KernelSpec(kind="rbf", gamma=1.0),
            KernelSpec(kind="poly", gamma=1.0, degree=2),
            KernelSpec(kind="poly", gamma=0.5, degree=7, coef0=-1.0),
        ],
    )
    def test_rejected_exactly_when_the_full_gram_is_not_finite(self, spec):
        rng = np.random.default_rng(11)
        for exponent in (0, 20, 40, 44, 77, 100, 153, 154, 155, 200, 300):
            x = rng.normal(size=(6, 1)) * 10.0**exponent
            with np.errstate(all="ignore"):
                expected = not np.all(np.isfinite(gram_matrix(spec, x, x)))
                try:
                    svr_fit(x, rng.normal(size=6), SvrConfig(kernel=spec, max_passes=1))
                    raised = False
                except DegenerateKernelMatrix:
                    raised = True
            assert raised == expected, exponent

    def test_evicting_row_cache_matches_reference_loop(self):
        # More coefficients move than the cache has slots, so rows are evicted
        # and built again.
        n = 1800
        rng = np.random.default_rng(5)
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=n)
        cfg = SvrConfig(kernel=KernelSpec(kind="linear"), c=0.05, tolerance=1e-8)
        params = pair_loop_from_zero(x, y, cfg)
        assert np.count_nonzero(params.alphas) > ROW_CACHE_BYTES // (8 * n)
        beta, bias, passes, converged = reference_fit(x, y, cfg)
        assert (params.alphas.tobytes(), params.bias, params.passes, params.converged) == (
            beta.tobytes(), bias, passes, converged
        )

    @pytest.mark.parametrize("capacity", [2, 3, 5])
    def test_row_cache_keeps_both_rows_of_a_pair(self, capacity):
        # A miss for row j must not take the slot that row i sits in.
        rng = np.random.default_rng(capacity)
        x = rng.normal(size=(9, 1))
        spec = KernelSpec(kind="rbf", gamma=0.4)
        gram = gram_matrix(spec, x, x)
        row = _row_cache(spec, x, capacity)
        for _ in range(200):
            i, j = (int(v) for v in rng.integers(0, 9, size=2))
            ri, rj = row(i), row(j)
            assert ri.tobytes() == gram[i].tobytes()
            assert rj.tobytes() == gram[j].tobytes()

    def test_row_cache_builds_each_kept_row_once(self, monkeypatch):
        built = []

        def counting(kernel, xa, xb):
            if xa.shape[0] == 1:
                built.append(xa[0, 0])
            return gram_matrix(kernel, xa, xb)

        monkeypatch.setattr(svr, "gram_matrix", counting)
        capacity = 4
        x = np.arange(9.0).reshape(-1, 1)
        spec = KernelSpec(kind="linear")
        for k in range(1, capacity + 1):
            row = _row_cache(spec, x, capacity)
            built.clear()
            for _ in range(3):
                for i in range(k):
                    row(i)
            assert built == list(range(k))
        # capacity + 1 distinct rows: the last evicts the least recently
        # read, row 0, and the most recent capacity rows stay cached
        row = _row_cache(spec, x, capacity)
        built.clear()
        for i in range(capacity + 1):
            row(i)
        assert built == list(range(capacity + 1))
        built.clear()
        for i in range(1, capacity + 1):
            row(i)
        assert built == []
        # a read renews a row: row 1 was built before row 2 but read again
        # since, so the miss for row 0 evicts row 2 (first in, first out
        # would evict row 1)
        row(1)
        row(0)
        row(1)
        assert built == [0]

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec(kind="linear"), KernelSpec(kind="rbf"), KernelSpec(kind="poly", degree=5)],
    )
    def test_fit_never_holds_the_gram(self, spec, width):
        n = 4000
        rng = np.random.default_rng(4)
        x = rng.normal(size=(n, width))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            svr_fit(x, y, SvrConfig(kernel=spec, max_passes=300))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n * n * 8 / 4

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec(kind="linear"), KernelSpec(kind="rbf"), KernelSpec(kind="poly", degree=5)],
    )
    def test_fit_holds_the_row_cache_and_vectors(self, spec):
        # the row cache's rows plus at most 16 length-n vectors: the data,
        # beta, K beta, the eps shifts, a pass's temporaries, the row being
        # built and the support vectors (about 14 measured on one feature)
        n = 4000
        rng = np.random.default_rng(4)
        x = rng.normal(size=(n, 1))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            svr_fit(x, y, SvrConfig(kernel=spec, max_passes=300))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ROW_CACHE_BYTES + 16 * n * 8

    @pytest.mark.parametrize(
        "spec", [KernelSpec(kind="linear"), KernelSpec(kind="poly", degree=5)]
    )
    def test_fit_of_a_few_passes_holds_less_than_the_row_cache(self, spec):
        # the row cache keeps only the rows a fit builds, so a fit that
        # finishes in a few passes never holds ROW_CACHE_BYTES of rows
        # (about 1.3 MiB measured on either kernel)
        n = 4000
        rng = np.random.default_rng(4)
        x = rng.normal(size=(n, 1))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            params = svr_fit(x, y, SvrConfig(kernel=spec, max_passes=300))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params.converged and params.passes <= 10
        assert peak < ROW_CACHE_BYTES

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="x has 3 rows but y has 4 values"):
            svr_fit(np.zeros((3, 1)), np.zeros(4), SvrConfig())

    def test_needs_two_rows(self):
        with pytest.raises(DimensionMismatch):
            svr_fit(np.zeros((1, 1)), np.zeros(1), SvrConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SvrConfig(c=0.0)
        with pytest.raises(ValueError):
            SvrConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            SvrConfig(max_passes=0)

    @pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf")])
    def test_config_rejects_bad_tolerance(self, tolerance):
        # NaN and -1 would spend the whole budget, inf certify any start
        with pytest.raises(ValueError, match="tolerance"):
            SvrConfig(tolerance=tolerance)
        assert SvrConfig(tolerance=0.0).tolerance == 0.0


def exact_dual(params, x, y, eps):
    """The dual objective of a fit, with K beta built in blocks."""
    beta = params.alphas
    k_beta = svr_predict(SvrParams(beta, 0.0, x, beta, params.kernel, True, 0), x)
    return float(-0.5 * beta @ k_beta + y @ beta - eps * np.sum(np.abs(beta)))


@pytest.fixture(scope="module")
def default_cells(chrono_split):
    """(label, train x, train y, config) of the grid's ten SVR cells on the
    520-day series and on the 5200-day one, at seed 11."""
    cells = []
    for spec in (SyntheticSpec(), SyntheticSpec(days=5200, midpoint=3900, width=450)):
        series = synthetic_epidemic(spec)
        for target in ("confirmed", "deaths"):
            data = build_supervised(series, ("day_index",), target)
            train = standardized_split(data, chrono_split).train
            for slot in default_grid():
                if slot.model_family == "svr":
                    label = f"{spec.days}-{target}-svr{slot.slot}"
                    cells.append((label, train.x, train.y, slot.config))
    return cells


class TestInteriorPointStart:
    def test_every_default_cell_converges(self, default_cells):
        assert len(default_cells) == 20
        for label, x, y, cfg in default_cells:
            params = svr_fit(x, y, cfg)
            assert params.converged, label
            assert params.passes < cfg.max_passes, label

    def test_dual_at_least_the_zero_start_pair_loops(self, default_cells):
        # where the pair loop from zero exhausts its budget the start's dual
        # is far higher; where both converge they agree to the tolerance
        for label, x, y, cfg in default_cells:
            started = exact_dual(svr_fit(x, y, cfg), x, y, cfg.epsilon)
            from_zero = exact_dual(pair_loop_from_zero(x, y, cfg), x, y, cfg.epsilon)
            assert started >= from_zero - 1e-9 * abs(from_zero), label

    @pytest.mark.parametrize(
        "spec, rank",
        [
            (KernelSpec(kind="linear"), 1),
            (KernelSpec(kind="poly", degree=2), 3),
            (KernelSpec(kind="poly", degree=5), 6),
            (KernelSpec(kind="poly", degree=7), 8),
        ],
    )
    def test_factor_finds_the_rank_of_one_column(self, spec, rank):
        # on one column poly-p is a degree-p polynomial in x x': rank p + 1
        day = np.arange(416.0)
        x = ((day - day.mean()) / day.std())[:, None]
        f, scale, residual = svr._factor(resolve_gamma(spec, x), x, 416)
        assert f.shape == (rank, 416)
        assert residual <= svr.FACTOR_TOL * scale

    def test_indefinite_gram_is_certified_on_exact_products(self):
        # coef0 < 0 with |x| = 1 gives K a zero diagonal but entries of -8,
        # which no factor error bound sees: K beta must be built exactly
        x = np.array([[-1.0], [1.0], [-1.0], [1.0], [-1.0], [1.0]])
        y = np.array([0.0, 1.0, 0.5, 2.0, -1.0, 3.0])
        spec = KernelSpec(kind="poly", gamma=1.0, degree=3, coef0=-1.0)
        assert not spec.positive_semidefinite
        cfg = SvrConfig(kernel=spec, tolerance=1e-6)
        params = svr_fit(x, y, cfg)
        assert params.converged
        resid = gram_matrix(spec, x, x) @ params.alphas - y
        shifts = np.array([svr._eps_shift(b, cfg.c, cfg.epsilon) for b in params.alphas])
        violation = np.max(resid + shifts[:, 1]) - np.min(resid + shifts[:, 0])
        assert violation <= cfg.tolerance

    def test_rank_zero_gram_fits(self):
        # gamma x x' cancels coef0 on every pair: K = 0, a linear program
        x = np.ones((4, 1))
        y = np.array([1.0, 2.0, 3.0, 4.0])
        spec = KernelSpec(kind="poly", gamma=1.0, degree=3, coef0=-1.0)
        f, scale, residual = svr._factor(spec, x, 4)
        assert (f.shape[0], scale, residual) == (0, 0.0, 0.0)
        cfg = SvrConfig(kernel=spec, tolerance=1e-8)
        params = svr_fit(x, y, cfg)
        assert params.converged
        solved = dual_objective(np.zeros((4, 4)), y, params.alphas, cfg.epsilon)
        assert solved == pytest.approx(qp_oracle(x, y, cfg), abs=1e-6)

    def test_solve_at_the_factor_cap_holds_less_than_the_factor(self):
        # the widest factor a fit makes (63 rows at n = 4160): an unblocked
        # f * e would alone hold f.nbytes (about 0.59 f.nbytes measured)
        from epicast.interior_point import solve_svr_dual

        n = 4160
        rng = np.random.default_rng(4)
        x = rng.normal(size=(n, 3))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=n)
        spec = resolve_gamma(KernelSpec(kind="rbf"), x)
        f, scale, _ = svr._factor(spec, x, svr._cache_rows(n))
        assert f.shape == (63, n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            solve_svr_dual(f, y / scale, 1.0, 0.1 / scale, 1e-3 / scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < f.nbytes

    def test_failed_solve_starts_from_zero(self, monkeypatch):
        # an interior point that ends in NaN is replaced by beta = 0, q = 0,
        # so the fit is the pair loop from zero (246 passes here, where the
        # interior-point start needs 1)
        from epicast import interior_point

        monkeypatch.setattr(
            interior_point, "solve_svr_dual", lambda f, *args: np.full(f.shape[1], np.nan)
        )
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 1))
        y = 2.0 * x[:, 0] + 0.1 * rng.normal(size=40)
        cfg = SvrConfig(kernel=KernelSpec(kind="linear"), tolerance=1e-6)
        params = svr_fit(x, y, cfg)
        expected = pair_loop_from_zero(x, y, cfg)
        assert params.converged and params.passes > 1
        assert params.alphas.tobytes() == expected.alphas.tobytes()
        assert (params.bias, params.passes) == (expected.bias, expected.passes)


class TestSvrPredict:
    def test_single_row_returns_one_value(self, rng):
        x = rng.normal(size=(8, 2))
        y = x[:, 0] + x[:, 1]
        params = svr_fit(x, y, SvrConfig(kernel=KernelSpec(kind="linear"), c=10.0))
        out = svr_predict(params, x[:1])
        assert out.shape == (1,)
        with pytest.raises(DimensionMismatch):  # a 1-D input is one column
            svr_predict(params, x[0])

    def test_batch_matches_singles(self, rng):
        x = rng.normal(size=(10, 1))
        y = np.tanh(x[:, 0])
        params = svr_fit(x, y, SvrConfig(kernel=KernelSpec(kind="rbf")))
        batch = svr_predict(params, x)
        singles = [svr_predict(params, row[None, :])[0] for row in x]
        assert batch == pytest.approx(singles)

    def test_linear_fit_tracks_line(self):
        x = np.linspace(0.0, 1.0, 9)[:, None]
        y = 2.0 * x[:, 0] + 0.3
        params = svr_fit(x, y, SvrConfig(
            kernel=KernelSpec(kind="linear"), c=100.0, epsilon=0.01, tolerance=1e-8,
        ))
        pred = svr_predict(params, x)
        assert np.max(np.abs(pred - y)) <= 0.01 + 1e-6

    def test_width_mismatch(self, rng):
        x = rng.normal(size=(6, 2))
        params = svr_fit(x, rng.normal(size=6), SvrConfig(kernel=KernelSpec(kind="linear")))
        with pytest.raises(DimensionMismatch):
            svr_predict(params, np.zeros((2, 3)))

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec(kind="linear"), KernelSpec(kind="rbf"), KernelSpec(kind="poly", degree=3)],
    )
    def test_row_blocks_do_not_move_a_prediction(self, spec, width, rng, monkeypatch):
        x = rng.normal(size=(300, width))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=300)
        params = svr_fit(x, y, SvrConfig(kernel=spec, c=0.5))
        x_new = rng.normal(size=(257, width))
        # a block is a quarter of ROW_CACHE_BYTES: all 257 rows by default,
        # then blocks of one row and of seven
        per_row = 4 * 8 * params.support_coefs.size
        assert 257 * per_row <= ROW_CACHE_BYTES
        whole = svr_predict(params, x_new)
        for rows in (1, 7):
            monkeypatch.setattr(svr, "ROW_CACHE_BYTES", rows * per_row)
            assert svr_predict(params, x_new).tobytes() == whole.tobytes(), rows
        k_cross = gram_matrix(params.kernel, x_new, params.support_vectors)
        bound = 1e-12 * (np.abs(k_cross) @ np.abs(params.support_coefs) + abs(params.bias))
        assert np.all(np.abs(whole - (k_cross @ params.support_coefs + params.bias)) <= bound)

    def test_predict_holds_a_bounded_block(self, rng):
        n_sv, m = 1500, 4000
        x = rng.normal(size=(n_sv, 1))
        params = SvrParams(
            alphas=np.full(n_sv, 0.5), bias=0.25, support_vectors=x,
            support_coefs=np.full(n_sv, 0.5), kernel=KernelSpec(kind="rbf", gamma=0.5),
            converged=True, passes=0,
        )
        x_new = rng.normal(size=(m, 1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            svr_predict(params, x_new)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # svr_predict's blocks: rows of n_sv entries within a quarter of
        # ROW_CACHE_BYTES, and the rbf build holds two (test_build_peak_memory)
        rows = max(1, ROW_CACHE_BYTES // (4 * 8 * n_sv))
        blocks = 2 * rows * n_sv * 8
        # the output and one block's row sums (at most m each), the support
        # vectors' squared norms and their squares (n_sv each), and numpy's
        # ufunc buffers, at most getbufsize() values for each of 3 operands
        vectors = 8 * (2 * m + 2 * n_sv) + 3 * 8 * np.getbufsize()
        # 1.28 MB at 2 MiB; the whole cross-Gram would be 48 MB
        assert peak <= blocks + vectors
