import numpy as np
import pytest

from cfee.nets import (Adam, MlpParams, backward, forward, forward_cache,
                       grad_check, init_mlp)


class TestForward:
    def test_zero_params_zero_output(self):
        p = init_mlp((3, 4, 2), np.random.default_rng(0))
        for a in p.arrays():
            a[...] = 0.0
        assert np.all(forward(p, np.ones(3)) == 0)

    def test_identity_single_layer(self):
        p = MlpParams([np.eye(3)], [np.zeros(3)], (3, 3))
        x = np.array([0.5, -1.2, 2.0])
        assert np.allclose(forward(p, x), x)

    def test_matches_hand_matrix_arithmetic(self):
        rng = np.random.default_rng(1)
        p = init_mlp((3, 4, 2), rng)
        x = rng.normal(size=3)
        # independent dense arithmetic with explicit loops
        h = np.empty(4)
        for i in range(4):
            h[i] = sum(p.weights[0][i, j] * x[j] for j in range(3)) \
                + p.biases[0][i]
            h[i] = max(h[i], 0.0)
        y = np.empty(2)
        for i in range(2):
            y[i] = sum(p.weights[1][i, j] * h[j] for j in range(4)) \
                + p.biases[1][i]
        assert np.allclose(forward(p, x), y, atol=1e-12)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(2)
        p = init_mlp((5, 8, 3), rng)
        xs = rng.normal(size=(4, 5))
        batched = forward(p, xs)
        for i in range(4):
            assert np.allclose(batched[i], forward(p, xs[i]))

    def test_bit_equal_forward_cache(self):
        # the in-place bias and ReLU give the bits of the cached pass, for
        # one input and a batch, in either parameter dtype
        rng = np.random.default_rng(5)
        p = init_mlp((40, 64, 64, 3), rng)
        for b in p.biases:
            b[...] = rng.normal(size=b.shape)
        for dtype in (np.float64, np.float32):
            q = MlpParams(p.weights, p.biases, p.sizes, dtype=dtype)
            for x in [rng.normal(size=40) for _ in range(10)] + [
                    rng.normal(size=(n, 40)) for n in (1, 2, 7)]:
                y, ref = forward(q, x), forward_cache(q, x)[0]
                assert y.shape == ref.shape and y.dtype == ref.dtype == dtype
                assert y.tobytes() == ref.tobytes()

    def test_shape_mismatch(self):
        p = init_mlp((3, 2), np.random.default_rng(3))
        with pytest.raises(ValueError):
            forward(p, np.ones(4))

    def test_runs_in_parameter_dtype(self):
        rng = np.random.default_rng(4)
        p = init_mlp((6, 16, 3), rng)
        x = rng.normal(size=(5, 6))
        y, _ = forward_cache(p, x)
        assert np.array_equal(forward(p, x), y)
        p32 = MlpParams(p.weights, p.biases, p.sizes, dtype=np.float32)
        assert p32.flat.dtype == np.float32
        y32 = forward(p32, x)
        assert y32.dtype == np.float32
        assert np.allclose(y32, y, rtol=1e-5, atol=1e-5)
        # the parameters are a copy of the arrays given
        p.flat[:] = 0.0
        assert np.array_equal(forward(p32, x), y32)


class TestGradCheck:
    def test_linear_net_exact(self):
        p = init_mlp((4, 3), np.random.default_rng(4))
        res = grad_check(p, np.random.default_rng(5), tol=1e-6)
        assert res.ok
        assert res.max_rel_err < 1e-7

    def test_two_hidden_relu(self):
        for seed in range(5):
            p = init_mlp((4, 6, 5, 2), np.random.default_rng(seed))
            res = grad_check(p, np.random.default_rng(100 + seed), tol=1e-4)
            assert res.ok, f"seed {seed}: {res.max_rel_err}"

    def test_reports_worst_index(self):
        p = init_mlp((3, 4, 2), np.random.default_rng(6))
        res = grad_check(p, np.random.default_rng(7))
        assert 0 <= res.worst_index < p.n_params()


class TestOptimizers:
    def test_adam_converges(self):
        x = np.array([5.0, -3.0])
        target = np.array([1.0, 2.0])
        opt = Adam(x, lr=0.05)
        losses = []
        for _ in range(400):
            losses.append(float(((x - target) ** 2).sum()))
            opt.step(2 * (x - target))
        assert losses[-1] < 1e-4
        assert np.allclose(x, target, atol=0.05)

    def test_matches_per_array_adam(self):
        # the one-vector update equals Adam applied to each array alone
        rng = np.random.default_rng(11)
        p = init_mlp((3, 5, 2), rng)
        arrays = [a.copy() for a in p.arrays()]
        opt = Adam(p.flat, lr=1e-2)
        m = [np.zeros_like(a) for a in arrays]
        v = [np.zeros_like(a) for a in arrays]
        for t in range(1, 21):
            grad = rng.normal(size=p.n_params())
            opt.step(grad)
            gw, gb = p.views(grad)
            grads = [g for pair in zip(gw, gb) for g in pair]
            root_c2 = np.sqrt(1 - 0.999 ** t)
            scale = 1e-2 * root_c2 / (1 - 0.9 ** t)
            for a, g, mi, vi in zip(arrays, grads, m, v):
                mi *= 0.9
                mi += g * (1 - 0.9)
                vi *= 0.999
                vi += g * g * (1 - 0.999)
                a -= mi / (np.sqrt(vi) + 1e-8 * root_c2) * scale
        for a, b in zip(arrays, p.arrays()):
            assert np.array_equal(a, b)

    def test_tracks_textbook_adam(self):
        # bias-corrected mhat / (sqrt(vhat) + eps) from the first step
        rng = np.random.default_rng(12)
        x = rng.normal(size=200)
        ref = x.copy()
        opt = Adam(x, lr=1e-2)
        m, v = np.zeros_like(x), np.zeros_like(x)
        for t in range(1, 51):
            grad = rng.normal(size=x.size) * rng.uniform(1e-3, 1e3)
            opt.step(grad)
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad ** 2
            mhat, vhat = m / (1 - 0.9 ** t), v / (1 - 0.999 ** t)
            ref -= 1e-2 * mhat / (np.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(x, ref, rtol=1e-12, atol=0)


class TestFlatten:
    def test_round_trip(self):
        p = init_mlp((3, 5, 2), np.random.default_rng(9))
        q = init_mlp((3, 5, 2), np.random.default_rng(10))
        q.flat[...] = p.flat
        for a, b in zip(p.arrays(), q.arrays()):
            assert np.array_equal(a, b)
        # the constructor lays arrays out as w0, b0, w1, b1
        r = MlpParams(p.weights, p.biases, p.sizes)
        assert np.array_equal(r.flat, np.concatenate(
            [a.ravel() for a in p.arrays()]))

    def test_layers_are_views(self):
        p = init_mlp((3, 5, 2), np.random.default_rng(12))
        p.flat[:] = np.arange(p.n_params())
        assert p.weights[0][0, 1] == 1.0
        assert p.biases[0][0] == 15.0
        storage = np.zeros(p.n_params() + 2)
        p.bind(storage[1:-1])
        assert p.biases[1][-1] == p.n_params() - 1
        storage[1] = -7.0
        assert p.weights[0][0, 0] == -7.0
