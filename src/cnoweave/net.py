"""Feedforward (P)ReLU networks with a flat parameter vector.

A network is described by a multi-index of layer widths ``dims = (d_0, ..., d_J)``
and a single flat parameter vector laid out as ordered blocks

    ((A_j, b_j, alpha_j) for j = 0..J-1, c)

with ``A_j`` of shape ``d_{j+1} x d_j`` (row-major), ``b_j`` of length ``d_j``,
``alpha_j`` a scalar PReLU slope, and an output bias ``c`` of length ``d_J``.
The realization is the recursion

    x_0 = x
    x_{j+1} = A_j @ prelu(x_j + b_j; alpha_j)
    output  = x_J + c

where ``prelu(v; a) = max(v, a*v)`` componentwise; slope 0 is ReLU and slope 1
is the identity (which is what makes depth-padding exact).

Note the bias is applied *before* the activation, in the layer's input space;
this is the convention the flat layout above dictates, and every operation in
this module (padding, parallelization, gradients) is consistent with it.
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
    "parallelize",
    "parallel_param_bound",
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


def _blocks(spec: NetSpec, buf: np.ndarray, slope_views=False):
    """([(A_j, b_j, alpha_j)], c) views into a flat buffer of theta's layout.

    ``alpha_j`` is the slope's value, or with ``slope_views`` a length-1 view,
    so that writing any block writes ``buf``.
    """
    d = spec.dims
    layers = []
    pos = 0
    for j in range(spec.depth):
        a_len = d[j + 1] * d[j]
        A = buf[pos : pos + a_len].reshape(d[j + 1], d[j])
        pos += a_len
        b = buf[pos : pos + d[j]]
        pos += d[j]
        layers.append((A, b, buf[pos : pos + 1] if slope_views else buf[pos]))
        pos += 1
    return layers, buf[pos:]


def unpack(spec: NetSpec, theta: np.ndarray):
    """Split theta into ([(A_j, b_j, alpha_j)], c) views in block order."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (param_count(spec),):
        raise InvalidArgumentError(
            f"theta has length {theta.shape}, spec {spec.dims} needs {param_count(spec)}"
        )
    return _blocks(spec, theta)


def pack(spec: NetSpec, layers, c) -> np.ndarray:
    """Inverse of :func:`unpack`; validates every block shape."""
    d = spec.dims
    if len(layers) != spec.depth:
        raise InvalidArgumentError(f"expected {spec.depth} layers, got {len(layers)}")
    parts = []
    for j, (A, b, alpha) in enumerate(layers):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if A.shape != (d[j + 1], d[j]) or b.shape != (d[j],):
            raise InvalidArgumentError(
                f"layer {j} block shapes {A.shape}/{b.shape} do not match dims {d}"
            )
        parts.append(A.ravel())
        parts.append(b)
        parts.append(np.array([float(alpha)]))
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (d[-1],):
        raise InvalidArgumentError(f"c has shape {c.shape}, expected ({d[-1]},)")
    parts.append(c)
    theta = np.concatenate(parts)
    assert theta.shape == (param_count(spec),)
    return theta


def init_params(spec: NetSpec, seed=0) -> np.ndarray:
    """He-style uniform fan-in initialization, deterministic in the seed.

    Biases and the output offset start at zero; PReLU slopes start at 0.25
    (zero for pure ReLU specs, which must keep all slopes at 0).
    """
    rng = np.random.default_rng(seed)
    d = spec.dims
    alpha0 = 0.0 if spec.activation == "relu" else 0.25
    layers = []
    for j in range(spec.depth):
        lim = math.sqrt(6.0 / d[j])
        A = rng.uniform(-lim, lim, size=(d[j + 1], d[j]))
        layers.append((A, np.zeros(d[j]), alpha0))
    return pack(spec, layers, np.zeros(d[-1]))


def _prelu(v, alpha):
    return np.maximum(v, alpha * v)


def forward(spec: NetSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; accepts a single vector or a batch (N, d_0)."""
    layers, c = unpack(spec, theta)
    h = np.asarray(x, dtype=np.float64)
    if h.shape[-1] != spec.d_in:
        raise InvalidArgumentError(
            f"input has last dim {h.shape[-1]}, spec expects {spec.d_in}"
        )
    for A, b, alpha in layers:
        h = _prelu(h + b, alpha) @ A.T
    return h + c


def _alpha_indices(spec: NetSpec) -> np.ndarray:
    """Flat indices of the per-layer slope entries."""
    d = spec.dims
    idx = []
    pos = 0
    for j in range(spec.depth):
        pos += d[j + 1] * d[j] + d[j]
        idx.append(pos)
        pos += 1
    return np.array(idx, dtype=np.intp)


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
    :func:`_blocks` slope views of a flat buffer.  With ``slopes`` false the slope
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
    _backward(layers, us, ss, g, _blocks(spec, out, slope_views=True))
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
    new_layers = []
    for j in range(J):
        A, b, alpha = layers[j]
        A_t = np.zeros((dims_target[j + 1], dims_target[j]))
        A_t[: src[j + 1], : src[j]] = A
        b_t = np.zeros(dims_target[j])
        b_t[: src[j]] = b
        new_layers.append((A_t, b_t, alpha))
    d_out = src[-1]
    for j in range(J, J_star):
        A_t = np.zeros((dims_target[j + 1], dims_target[j]))
        A_t[:d_out, :d_out] = np.eye(d_out)
        new_layers.append((A_t, np.zeros(dims_target[j]), 1.0))
    return out_spec, pack(out_spec, new_layers, c)


def _relu_extend_depth(spec: NetSpec, theta: np.ndarray, target_depth: int):
    """Append pass-through layers to a pure-ReLU net, staying pure ReLU.

    Uses the two-channel identity u = relu(u) - relu(-u): the last affine
    layer is doubled to emit (v, -v), interior appended layers map the pair
    to itself, and a final [I, -I] layer recombines.
    """
    layers, c = unpack(spec, theta)
    if any(alpha != 0.0 for _, _, alpha in layers):
        raise InvalidArgumentError("pure-ReLU depth extension needs all slopes 0")
    J = spec.depth
    k = target_depth - J
    if k < 0:
        raise InvalidArgumentError("target depth below source depth")
    if k == 0:
        return spec, np.array(theta, dtype=np.float64, copy=True)
    d = spec.dims
    m = d[-1]
    A_last, b_last, _ = layers[-1]
    new_layers = list(layers[:-1])
    new_layers.append((np.vstack([A_last, -A_last]), b_last, 0.0))
    eye = np.eye(m)
    keep_pair = np.block([[eye, -eye], [-eye, eye]])
    for _ in range(k - 1):
        new_layers.append((keep_pair, np.zeros(2 * m), 0.0))
    new_layers.append((np.hstack([eye, -eye]), np.zeros(2 * m), 0.0))
    dims = d[:-1] + (2 * m,) * k + (m,)
    out_spec = NetSpec(dims, "relu")
    return out_spec, pack(out_spec, new_layers, c)


def parallel_param_bound(member_counts, l, n, c=2):
    """Upper bound on the parallelization's parameter count.

    ``l`` is the largest input/output width among members, ``n`` the number
    of members, ``c`` the cost of the activation's identity network (2 for
    ReLU).
    """
    return (11.0 / 16.0 * c * c * l * l * n * n - 1.0) * sum(member_counts)


def parallelize(nets) -> tuple:
    """Stack networks sharing an input into one computing x -> (f_1(x), ..., f_m(x)).

    Mixed depths are supported for pure-ReLU members (synchronized with the
    two-channel ReLU identity); otherwise members must share depth and their
    per-layer slopes.  A slope-1 input-duplication layer is prepended so each
    member keeps its own first-layer bias, which makes the result PReLU.
    """
    if not nets:
        raise InvalidArgumentError("need at least one network")
    if len(nets) == 1:
        spec, theta = nets[0]
        return spec, np.array(theta, dtype=np.float64, copy=True)
    d_in = nets[0][0].d_in
    if any(spec.d_in != d_in for spec, _ in nets):
        raise InvalidArgumentError("members must share the input dimension")

    depths = {spec.depth for spec, _ in nets}
    if len(depths) > 1:
        target = max(depths)
        if not all(spec.activation == "relu" for spec, _ in nets):
            raise InvalidArgumentError(
                "mixed depths are only supported for pure-ReLU members"
            )
        nets = [_relu_extend_depth(spec, theta, target) for spec, theta in nets]

    J = nets[0][0].depth
    unpacked = [unpack(spec, theta) for spec, theta in nets]
    for j in range(J):
        slopes = {layers[j][2] for layers, _ in unpacked}
        if len(slopes) > 1:
            raise InvalidArgumentError(
                f"members disagree on the slope of layer {j}: {sorted(slopes)}"
            )

    m = len(nets)
    dims = (d_in, m * d_in) + tuple(
        sum(spec.dims[j] for spec, _ in nets) for j in range(1, J + 1)
    )
    new_layers = [(np.tile(np.eye(d_in), (m, 1)), np.zeros(d_in), 1.0)]
    for j in range(J):
        blocks = [layers[j][0] for layers, _ in unpacked]
        rows = sum(b.shape[0] for b in blocks)
        cols = sum(b.shape[1] for b in blocks)
        A = np.zeros((rows, cols))
        r = cpos = 0
        for blk in blocks:
            A[r : r + blk.shape[0], cpos : cpos + blk.shape[1]] = blk
            r += blk.shape[0]
            cpos += blk.shape[1]
        b = np.concatenate([layers[j][1] for layers, _ in unpacked])
        new_layers.append((A, b, unpacked[0][0][j][2]))
    c = np.concatenate([cvec for _, cvec in unpacked])
    out_spec = NetSpec(dims, "prelu")
    return out_spec, pack(out_spec, new_layers, c)


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
    rng = np.random.default_rng(seed)
    theta = init_params(spec, seed)
    # the step updates theta in place through these views, so a minibatch
    # neither unpacks nor packs
    layers, cvec = _blocks(spec, theta, slope_views=True)
    gradvec = np.empty_like(theta)
    grads = _blocks(spec, gradvec, slope_views=True)
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
