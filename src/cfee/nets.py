# Minimal fully connected networks with explicit reverse-mode gradients,
# an Adam optimizer, and a finite-difference gradient checker.
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


class MlpParams:
    """Dense network parameters: linear layers with ReLU hidden units.

    Every parameter lives in one vector, `flat`, a copy of the arrays
    given in `dtype`, laid out w0, b0, w1, b1, ...; `weights[i]` (shape
    (out_i, in_i)) and `biases[i]` are views into it, so an update of
    `flat` updates every layer at once.
    """

    def __init__(self, weights: Sequence[np.ndarray],
                 biases: Sequence[np.ndarray], sizes: Sequence[int],
                 dtype=np.float64):
        self.sizes = tuple(sizes)
        arrays = [a for pair in zip(weights, biases) for a in pair]
        self._shapes = [np.shape(a) for a in arrays]
        # offset of each array in `flat`
        self.starts = np.cumsum([0] + [np.size(a) for a in arrays[:-1]])
        # the leading empty array gives a network with no layers an empty
        # `flat`
        self.flat = np.concatenate(
            [np.zeros(0)] + [np.ravel(a) for a in arrays]).astype(dtype)
        self.weights, self.biases = self.views(self.flat)

    def views(self, vec: np.ndarray):
        """(weights, biases) shaped views into a vector laid out like
        `flat`, e.g. a gradient."""
        arrays = [part.reshape(shape) for part, shape in
                  zip(np.split(vec, self.starts[1:]), self._shapes)]
        return arrays[0::2], arrays[1::2]

    def bind(self, storage: np.ndarray):
        """Move the parameters into `storage` (a vector of the same size,
        e.g. a slice of a larger one) and re-point the layer views."""
        storage[...] = self.flat
        self.flat = storage
        self.weights, self.biases = self.views(storage)

    def copy(self) -> "MlpParams":
        return MlpParams(self.weights, self.biases, self.sizes,
                         dtype=self.flat.dtype)

    def arrays(self) -> List[np.ndarray]:
        return [a for pair in zip(self.weights, self.biases) for a in pair]

    def n_params(self) -> int:
        return self.flat.size


def init_mlp(sizes: Sequence[int], rng: np.random.Generator,
             final_scale: float = 1.0) -> MlpParams:
    """He-initialized MLP; `final_scale` shrinks the output layer (useful
    for policy heads that should start near the middle of the action box)."""
    weights, biases = [], []
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        scale = np.sqrt(2.0 / n_in)
        if i == len(sizes) - 2:
            scale *= final_scale
        weights.append(rng.normal(0.0, scale, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return MlpParams(weights, biases, tuple(sizes))


def zero_mlp(sizes: Sequence[int]) -> MlpParams:
    """An MLP with the given layer sizes and every parameter zero."""
    pairs = list(zip(sizes[:-1], sizes[1:]))
    return MlpParams([np.zeros((n_out, n_in)) for n_in, n_out in pairs],
                     [np.zeros(n_out) for _, n_out in pairs], tuple(sizes))


def forward(params: MlpParams, x: np.ndarray,
            acts: Optional[list] = None) -> np.ndarray:
    """Forward pass in the parameters' dtype; accepts (in,) or (batch, in).
    Each layer's bias and ReLU act in place on its product. Given a list
    `acts`, the input as a 2-D batch and each layer's output are appended
    to it, as `backward` needs them."""
    x = np.asarray(x, dtype=params.flat.dtype)
    h = x[None, :] if x.ndim == 1 else x
    if h.shape[1] != params.sizes[0]:
        raise ValueError(f"input dim {h.shape[1]} != {params.sizes[0]}")
    if acts is not None:
        acts.append(h)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        if acts is not None:
            acts.append(h)
    return h[0] if x.ndim == 1 else h


def forward_cache(params: MlpParams, x: np.ndarray):
    """Forward pass keeping the activations needed for backward()."""
    acts = []
    y = forward(params, x, acts)
    return y, (acts, np.ndim(x) == 1)


def backward(params: MlpParams, cache, grad_out: np.ndarray,
             grad: Optional[np.ndarray] = None) -> np.ndarray:
    """Backpropagate d(loss)/d(output) through the cached forward pass.

    Returns d(loss)/d(parameters) as one vector laid out like
    `params.flat`, in its dtype, written into `grad` when given. The
    gradient with respect to the input is not formed.
    """
    acts, squeeze = cache
    g = np.asarray(grad_out, dtype=params.flat.dtype)
    if squeeze:
        g = g[None, :]
    if grad is None:
        grad = np.empty_like(params.flat)
    gw, gb = params.views(grad)
    last = len(params.weights) - 1
    for i in range(last, -1, -1):
        if i < last:
            g *= acts[i + 1] > 0  # ReLU gate, in place: g is a fresh product
        np.matmul(g.T, acts[i], out=gw[i])
        g.sum(axis=0, out=gb[i])
        if i > 0:
            g = g @ params.weights[i]
    return grad


class Adam:
    """Adam over one parameter vector, updated in place in its dtype."""

    FLUSH_EVERY = 32  # steps between flushes of the moments

    def __init__(self, params: np.ndarray, lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._buf = np.empty_like(params)  # work buffer reused by every step
        self.t = 0

    def step(self, grad: np.ndarray):
        """Descend along `grad` (negate the gradient to ascend) by the
        textbook lr * mhat / (sqrt(vhat) + eps), its bias corrections
        c1 = 1 - beta1^t and c2 = 1 - beta2^t folded into two Python
        floats (a NumPy float64 scalar would run float32 vectors through
        float64 loops and casts). Every FLUSH_EVERY steps, `flush` sets
        the moments' near-subnormal entries to 0."""
        self.t += 1
        b1, b2, buf = self.beta1, self.beta2, self._buf
        root_c2 = math.sqrt(1 - b2 ** self.t)
        # m = b1 * m + (1 - b1) * g
        np.multiply(grad, 1 - b1, out=buf)
        self.m *= b1
        self.m += buf
        # v = b2 * v + (1 - b2) * g * g
        np.multiply(grad, grad, out=buf)
        buf *= 1 - b2
        self.v *= b2
        self.v += buf
        # params -= (lr * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2))
        np.sqrt(self.v, out=buf)
        buf += self.eps * root_c2
        np.divide(self.m, buf, out=buf)
        buf *= self.lr * root_c2 / (1 - b1 ** self.t)
        self.params -= buf
        if self.t % self.FLUSH_EVERY == 0:
            self.flush()

    def flush(self):
        """Set to 0 the entries of m below 2 * tiny / beta1^FLUSH_EVERY,
        and of v below 2 * tiny / beta2^FLUSH_EVERY (tiny: the smallest
        normal float). A kept entry stays above 2 * tiny through
        FLUSH_EVERY steps of pure decay, so none turns subnormal before
        the next flush; the factor 2 covers rounding.

        Once a gradient entry stays 0 (a dead ReLU unit), m *= beta1 and
        v *= beta2 would walk its moments through the subnormal range,
        where arithmetic runs several times slower. A flushed entry of m
        moves its parameter by at most about 60 * lr * tiny / eps, far
        below half an ulp of any nonzero weight, and sqrt(v) < 1e-18 is
        absorbed by eps, so the parameters keep their bits."""
        n = self.FLUSH_EVERY
        floor = 2.0 * float(np.finfo(self.m.dtype).tiny)
        np.abs(self.m, out=self._buf)
        self.m[self._buf < floor / self.beta1 ** n] = 0.0
        self.v[self.v < floor / self.beta2 ** n] = 0.0  # v >= 0: no abs


@dataclass
class GradCheckResult:
    max_rel_err: float
    worst_index: int
    ok: bool


def grad_check(params: MlpParams, rng: np.random.Generator,
               tol: float = 1e-4, h: float = 1e-5,
               batch: int = 4) -> GradCheckResult:
    """Compare backward() against central finite differences.

    Uses a squared-error loss on random inputs/targets. The loss is not
    differentiable where a hidden pre-activation sits on the ReLU kink
    (e.g. a dead layer feeding zero-initialized biases puts the next
    pre-activation at exactly 0), so inputs and parameters are jittered
    until every pre-activation clears the kink by more than the FD step.
    """
    params = params.copy()
    target = rng.normal(0.0, 1.0, size=(batch, params.sizes[-1]))

    def min_kink_distance(x: np.ndarray) -> float:
        a, dist = x, np.inf
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = a @ w.T + b
            if i == len(params.weights) - 1:
                break
            dist = min(dist, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        return dist

    for _ in range(50):
        x = rng.normal(0.0, 1.0, size=(batch, params.sizes[0]))
        if min_kink_distance(x) > 100 * h:
            break
        params.flat += rng.normal(0.0, 0.01, size=params.n_params())

    def loss_at(flat: np.ndarray) -> float:
        p = params.copy()
        p.flat[...] = flat
        y = forward(p, x)
        return 0.5 * float(((y - target) ** 2).sum())

    y, cache = forward_cache(params, x)
    analytic = backward(params, cache, y - target)

    flat0 = params.flat.copy()
    numeric = np.empty_like(flat0)
    for i in range(flat0.size):
        up, dn = flat0.copy(), flat0.copy()
        up[i] += h
        dn[i] -= h
        numeric[i] = (loss_at(up) - loss_at(dn)) / (2 * h)

    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    return GradCheckResult(max_rel_err=float(rel[worst]), worst_index=worst,
                           ok=bool(rel[worst] <= tol))
