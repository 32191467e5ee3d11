"""Feedforward (P)ReLU networks with a flat parameter vector.

A network is described by a multi-index of layer widths ``dims = (d_0, ..., d_J)``
and a single flat parameter vector laid out as ordered blocks

    ((A_j, b_j, alpha_j) for j = 0..J-1, c)

with ``A_j`` of shape ``d_{j+1} x d_j`` (row-major), ``b_j`` of length ``d_j``,
``alpha_j`` a scalar PReLU slope, and an output bias ``c`` of length ``d_J``.
:func:`param_count` gives the layout's size and :func:`_blocks` its order:
it walks a (P,) vector or a (T, P) stack of them and returns views of every
block, which every other function here reads or writes through.
The realization is the recursion

    x_0 = x
    x_{j+1} = A_j @ prelu(x_j + b_j; alpha_j)
    output  = x_J + c

where ``prelu(v; a) = max(v, a*v)`` componentwise; slope 0 is ReLU and slope 1
is the identity (which is what makes depth-padding exact).

Note the bias is applied *before* the activation, in the layer's input space;
this is the convention the flat layout above dictates, and every operation in
this module (padding, gradients) is consistent with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, TrainingDivergedError

__all__ = [
    "NetSpec",
    "param_count",
    "init_params",
    "unpack",
    "pack",
    "forward",
    "grad",
    "pad_to",
    "train",
]


@dataclass(frozen=True)
class NetSpec:
    """Layer widths plus the activation family."""

    dims: tuple
    activation: str = "prelu"  # "relu" | "prelu"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise InvalidArgumentError(f"need at least (d_0, d_1), got {dims}")
        if any(d < 1 for d in dims):
            raise InvalidArgumentError(f"all widths must be >= 1, got {dims}")
        if self.activation not in ("relu", "prelu"):
            raise InvalidArgumentError(f"unknown activation {self.activation!r}")

    @property
    def depth(self):
        """Number of affine layers J."""
        return len(self.dims) - 1

    @property
    def d_in(self):
        return self.dims[0]

    @property
    def d_out(self):
        return self.dims[-1]


def param_count(spec: NetSpec) -> int:
    """P(dims) = J + sum_j d_j * (d_{j+1} + 1) + d_J."""
    d = spec.dims
    J = len(d) - 1
    return J + sum(d[j] * (d[j + 1] + 1) for j in range(J)) + d[-1]


def _blocks(spec: NetSpec, buf: np.ndarray):
    """([(A_j, b_j, alpha_j)], c) views into ``buf``, whose last axis holds
    theta's layout: one (P,) vector or a (T, P) stack of them.  Every block
    keeps the leading axes: ``A_j`` is (..., d_{j+1}, d_j), ``b_j`` (..., d_j),
    ``alpha_j`` (..., 1) and ``c`` (..., d_J).  They are views, never copies,
    so writing a block writes ``buf``.  With :func:`param_count` this is the
    one place that knows the layout."""
    d = spec.dims
    lead = buf.shape[:-1]
    layers = []
    pos = 0
    for j in range(spec.depth):
        a_len = d[j + 1] * d[j]
        A = buf[..., pos : pos + a_len].reshape(lead + (d[j + 1], d[j]))
        pos += a_len
        b = buf[..., pos : pos + d[j]]
        pos += d[j]
        layers.append((A, b, buf[..., pos : pos + 1]))
        pos += 1
    return layers, buf[..., pos:]


def unpack(spec: NetSpec, theta: np.ndarray):
    """Split theta into its :func:`_blocks` views, checking its length."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (param_count(spec),):
        raise InvalidArgumentError(
            f"theta has length {theta.shape}, spec {spec.dims} needs {param_count(spec)}"
        )
    return _blocks(spec, theta)


def pack(spec: NetSpec, layers, c) -> np.ndarray:
    """Inverse of :func:`unpack`; validates every block shape."""
    if len(layers) != spec.depth:
        raise InvalidArgumentError(f"expected {spec.depth} layers, got {len(layers)}")
    theta = np.empty(param_count(spec))
    blocks, c_out = _blocks(spec, theta)
    for j, ((A, b, alpha), (A_out, b_out, alpha_out)) in enumerate(zip(layers, blocks)):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if A.shape != A_out.shape or b.shape != b_out.shape or np.size(alpha) != 1:
            raise InvalidArgumentError(
                f"layer {j} block shapes {A.shape}/{b.shape}/{np.shape(alpha)} "
                f"do not match dims {spec.dims}"
            )
        A_out[:] = A
        b_out[:] = b
        alpha_out[:] = float(np.asarray(alpha).item())  # numpy would store None as NaN
    c = np.asarray(c, dtype=np.float64)
    if c.shape != c_out.shape:
        raise InvalidArgumentError(f"c has shape {c.shape}, expected {c_out.shape}")
    c_out[:] = c
    return theta


def init_params(spec: NetSpec, seed=0) -> np.ndarray:
    """He-style uniform fan-in initialization, deterministic in the seed.

    Biases and the output offset start at zero; PReLU slopes start at 0.25
    (zero for pure ReLU specs, which must keep all slopes at 0).
    """
    rng = np.random.default_rng(seed)
    theta = np.zeros(param_count(spec))
    layers, _ = _blocks(spec, theta)
    for A, _, alpha in layers:
        lim = math.sqrt(6.0 / A.shape[1])  # the fan-in d_j
        A[:] = rng.uniform(-lim, lim, size=A.shape)
        alpha[:] = 0.0 if spec.activation == "relu" else 0.25
    return theta


def forward(spec: NetSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; accepts a single vector or a batch (N, d_0)."""
    layers, c = unpack(spec, theta)
    h = np.asarray(x, dtype=np.float64)
    if h.shape[-1] != spec.d_in:
        raise InvalidArgumentError(
            f"input has last dim {h.shape[-1]}, spec expects {spec.d_in}"
        )
    return _realize(layers, c, h)


def _realize(layers, c, h):
    """The layer loop of :func:`forward` on unpacked blocks and a float input
    of the right width; a caller that evaluates one net many times unpacks
    once and calls this.  The activation is written out and the product is
    ``np.dot``: on a small hypernetwork's steps the calls cost more than the
    arithmetic.  Every array but the input is the loop's own, so the
    activation and the output bias are applied in place.  For n nets, one
    per row of an (n, batch, d_0) ``h``, pass blocks of an (n, P) stack with
    ``b``, ``alpha`` and ``c`` broadcast over the batch: net i's product is
    then slice i of one ``np.matmul``, slower per small product than np.dot."""
    for A, b, alpha in layers:
        h = h + b
        np.maximum(h, alpha * h, out=h)
        h = np.dot(h, A.T) if A.ndim == 2 else np.matmul(h, A.transpose(0, 2, 1))
    h += c
    return h


def _alpha_branch_mask(u, au):
    """True where the ``au = alpha*u`` branch of max(u, alpha*u) is active.

    Ties (u == alpha*u) resolve to the alpha branch when u <= 0, so the ReLU
    subgradient at 0 is 0.
    """
    return (au > u) | ((au == u) & (u <= 0))


# np.sum's own reduction without its Python wrapper, which costs as much as
# the sum on the small arrays of a minibatch step; pass axis=None for a total
_sum = np.add.reduce


def _forward_cached(layers, c, x):
    """Forward pass keeping the per-layer pre-activations and activations."""
    us, ss = [], []
    h = x
    for A, b, alpha in layers:
        u = h + b
        au = alpha * u
        mask = _alpha_branch_mask(u, au)
        s = np.where(mask, au, u)
        us.append(u)
        ss.append((s, mask))
        h = s @ A.T
    return h + c, us, ss


def _backward(layers, us, ss, g, grads, slopes=True):
    """Reverse sweep; ``g`` is the batched upstream (N, d_J).

    Writes the gradient, summed over the batch, into ``grads``: the
    :func:`_blocks` views of a flat buffer.  With ``slopes`` false the slope
    entries are set to 0, which keeps a ReLU net's slopes at 0.
    """
    grad_layers, dc = grads
    _sum(g, axis=0, out=dc)
    gx = g
    for j in range(len(layers) - 1, -1, -1):
        A, _, alpha = layers[j]
        dA, db, dalpha = grad_layers[j]
        s, mask = ss[j]
        np.matmul(gx.T, s, out=dA)
        gs = gx @ A
        dalpha[0] = _sum(gs * np.where(mask, us[j], 0.0), axis=None) if slopes else 0.0
        gu = gs * np.where(mask, alpha, 1.0)
        _sum(gu, axis=0, out=db)
        gx = gu


def grad(spec: NetSpec, theta: np.ndarray, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of ``upstream . forward(x)`` with respect to theta.

    ``x`` and ``upstream`` are single vectors of lengths d_0 and d_J.
    """
    layers, c = unpack(spec, theta)
    x = np.asarray(x, dtype=np.float64).reshape(1, spec.d_in)
    g = np.asarray(upstream, dtype=np.float64).reshape(1, spec.d_out)
    _, us, ss = _forward_cached(layers, c, x)
    out = np.empty(param_count(spec))  # _backward writes every entry
    _backward(layers, us, ss, g, _blocks(spec, out))
    return out


def pad_to(spec_src: NetSpec, params_src: np.ndarray, dims_target) -> tuple:
    """Embed a network into a wider/deeper shape without changing its function.

    Padded rows/columns are zero; appended layers are identity blocks with
    slope 1 (so they pass any real value through unchanged).  Requires the
    target to dominate the source per layer, keep the source depth as a
    prefix, and agree on input/output widths.
    """
    dims_target = tuple(int(d) for d in dims_target)
    src = spec_src.dims
    J = spec_src.depth
    J_star = len(dims_target) - 1
    if J_star < J:
        raise InvalidArgumentError(f"target depth {J_star} < source depth {J}")
    if dims_target[0] != src[0] or dims_target[-1] != src[-1]:
        raise InvalidArgumentError(
            f"target endpoints {dims_target[0]}/{dims_target[-1]} must equal "
            f"source endpoints {src[0]}/{src[-1]}"
        )
    for j in range(J_star + 1):
        need = src[min(j, J)]
        if dims_target[j] < need:
            raise InvalidArgumentError(
                f"target width {dims_target[j]} at layer {j} below required {need}"
            )
    layers, c = unpack(spec_src, params_src)
    out_spec = NetSpec(dims_target, "prelu")
    theta = np.zeros(param_count(out_spec))
    new_layers, c_t = _blocks(out_spec, theta)
    for (A, b, alpha), (A_t, b_t, alpha_t) in zip(layers, new_layers):
        A_t[: A.shape[0], : A.shape[1]] = A
        b_t[: b.shape[0]] = b
        alpha_t[:] = alpha
    d_out = src[-1]
    for A_t, _, alpha_t in new_layers[J:]:
        A_t[:d_out, :d_out] = np.eye(d_out)
        alpha_t[:] = 1.0
    c_t[:] = c
    return out_spec, theta


TRAIN_OPTIONS = ("lr", "epochs", "seed", "batch")


def train(spec: NetSpec, dataset, opts=None):
    """Plain (mini-batch) gradient descent on mean-squared error.

    ``dataset`` is an ``(X, Y)`` pair of arrays with rows as samples; ``opts``
    sets any of :data:`TRAIN_OPTIONS`, and another key is an error.  Returns
    ``(theta, trace)`` where ``trace`` is the per-epoch loss with a running
    minimum applied (monotone, for gate checks); deterministic in the seed.
    """
    opts = dict(opts or {})
    unknown = sorted(set(opts) - set(TRAIN_OPTIONS))
    if unknown:
        raise InvalidArgumentError(f"unknown train option(s) {unknown}; known: {TRAIN_OPTIONS}")

    X, Y = dataset
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] == 0:
        raise InvalidArgumentError("empty dataset")
    if X.shape[1] != spec.d_in or Y.shape[1] != spec.d_out:
        raise InvalidArgumentError(
            f"dataset shapes {X.shape}/{Y.shape} do not match spec dims {spec.dims}"
        )

    n = X.shape[0]
    try:
        lr = float(opts.get("lr", 0.05))
        epochs = int(opts.get("epochs", 200))
        seed = int(opts.get("seed", 0))
        batch = min(int(opts.get("batch", n)), n)
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidArgumentError(f"ill-typed train option: {e}") from e
    if batch < 1:
        raise InvalidArgumentError(f"train option batch must be >= 1, got {batch}")
    if epochs < 0 or seed < 0:
        raise InvalidArgumentError(f"train options epochs and seed must be >= 0, "
                                   f"got {epochs} and {seed}")
    if not (math.isfinite(lr) and lr > 0):
        raise InvalidArgumentError(f"train option lr must be finite and positive, got {lr}")
    rng = np.random.default_rng(seed)
    theta = init_params(spec, seed)
    # the step updates theta in place through these views, so a minibatch
    # neither unpacks nor packs
    layers, cvec = _blocks(spec, theta)
    gradvec = np.empty_like(theta)
    grads = _blocks(spec, gradvec)
    slopes = spec.activation != "relu"
    trace = []
    best = math.inf
    for _ in range(epochs):
        if batch < n:
            order = rng.permutation(n)
            Xe, Ye = X[order], Y[order]
        else:
            Xe, Ye = X, Y
        epoch_loss = 0.0
        for start in range(0, n, batch):
            xb, yb = Xe[start : start + batch], Ye[start : start + batch]
            out, us, ss = _forward_cached(layers, cvec, xb)
            resid = out - yb
            # np.mean's arithmetic: the total of the row sums over the row count
            loss = float(_sum(_sum(resid * resid, axis=1), axis=None)) / xb.shape[0]
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    "loss became non-finite", last_params=theta.copy(), trace=trace
                )
            _backward(layers, us, ss, 2.0 * resid / xb.shape[0], grads, slopes)
            theta -= lr * gradvec
            epoch_loss += loss * (xb.shape[0] / n)
        best = min(best, epoch_loss)
        trace.append(best)
    return theta, trace
