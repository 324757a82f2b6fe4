"""Independent reference implementations the fast paths are checked against.

Everything here is deliberately naive: explicit loops, arbitrary precision,
or exhaustive enumeration. None of it shares code with the package, except
train_sgd_tape, which drives the network's own tape forward and backward,
backward_retaining, which replays the tape's own recorded rules,
conv_layer_unfused, which chains the tape's own unfused operations, and
finite_diff_check, which compares the package's backward with central
differences of the same function. standardization_whole_array is numpy's own
mean and std over the whole network-size array, the form the streamed
standardization fit must reproduce bit for bit.
"""

import numpy as np
from fractions import Fraction

import mpmath


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def conv2d_loops(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Direct cross-correlation over a (N, C, H, W) batch."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for nn in range(n):
        for oo in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for cc in range(c):
                        for a in range(kh):
                            for b in range(kw):
                                acc += xp[nn, cc, i * stride + a, j * stride + b] * w[oo, cc, a, b]
                    out[nn, oo, i, j] = acc
    return out


def maxpool2d_loops(x: np.ndarray, window: int = 2) -> np.ndarray:
    c, h, w = x.shape
    out = np.zeros((c, h // window, w // window))
    for cc in range(c):
        for i in range(h // window):
            for j in range(w // window):
                out[cc, i, j] = x[cc, i * window : (i + 1) * window,
                                  j * window : (j + 1) * window].max()
    return out


def cross_entropy_mpmath(logits: np.ndarray, labels) -> float:
    """Mean softmax cross-entropy at 50 significant digits."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for row, label in zip(logits, labels):
            exps = [mpmath.e ** mpmath.mpf(v) for v in row]
            total += -mpmath.log(exps[label] / mpmath.fsum(exps))
        return float(total / len(labels))


def pearson_fraction(x, y) -> float:
    """Product-moment coefficient in exact rational arithmetic."""
    xf = [Fraction(float(v)) for v in x]
    yf = [Fraction(float(v)) for v in y]
    n = len(xf)
    mx = sum(xf, Fraction(0)) / n
    my = sum(yf, Fraction(0)) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(xf, yf))
    sxx = sum((a - mx) ** 2 for a in xf)
    syy = sum((b - my) ** 2 for b in yf)
    import math

    return float(sxy) / math.sqrt(float(sxx) * float(syy))


def kendall_tau_b_loops(x, y) -> float:
    """Pair-by-pair tau-b."""
    import math

    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) / 2
    return (concordant - discordant) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def spearman_rank_then_pearson(x, y) -> float:
    """Average-rank transform followed by the exact-rational Pearson oracle."""

    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        out = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2 + 1
            i = j + 1
        return out

    return pearson_fraction(ranks(list(x)), ranks(list(y)))


def grid_min_inner_product(g: np.ndarray, p, epsilon: float, points: int = 41) -> float:
    """Brute-force min of delta.g over the epsilon ||.||_p ball on a grid."""
    axes = [np.linspace(-epsilon, epsilon, points)] * len(g)
    best = 0.0
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    if p == 1:
        ok = np.abs(flat).sum(axis=1) <= epsilon + 1e-12
    elif p == 2:
        ok = (flat ** 2).sum(axis=1) <= epsilon ** 2 + 1e-12
    else:
        ok = np.abs(flat).max(axis=1) <= epsilon + 1e-12
    values = flat[ok] @ g
    return float(min(values.min(), best))


def permutation_pvalue_loop(x, y, coefficient, n_permutations=None, seed=0) -> float:
    """Permutation p-value with one ``coefficient`` call per permutation.

    ``n_permutations=None`` enumerates all n! orderings and returns count / n!;
    otherwise successive ``rng.permutation(y)`` draws from the seeded stream
    give the add-one estimate (count + 1) / (P + 1).
    """
    import itertools

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    threshold = abs(coefficient(x, y))
    if n_permutations is None:
        perms = [y[list(p)] for p in itertools.permutations(range(len(y)))]
        return sum(abs(coefficient(x, p)) >= threshold for p in perms) / len(perms)
    rng = np.random.default_rng([int(seed), 0xC0])
    count = sum(abs(coefficient(x, rng.permutation(y))) >= threshold
                for _ in range(n_permutations))
    return (count + 1) / (n_permutations + 1)


def train_sgd_tape(net, images: np.ndarray, labels: np.ndarray, epochs: int,
                   learning_rate: float, momentum: float, batch_size: int, seed: int):
    """Classical-momentum SGD with net.forward on every full batch.

    The batch order and the dropout generator are models.train_sgd's; the
    forward is the tape path, with no frame shared across the batch.
    Returns the per-epoch mean loss.
    """
    import reprolab.tensor as T

    params = net.params
    for p in params:
        p.requires_grad = True
    velocity = [np.zeros_like(p.array) for p in params]
    dropout_rng = np.random.default_rng([seed, 0xD0])
    history = []
    for epoch in range(epochs):
        perm = np.random.default_rng([seed, epoch]).permutation(len(images))
        losses = []
        for i in range(len(images) // batch_size):
            batch = perm[i * batch_size:(i + 1) * batch_size]
            logits = net.forward(T.Tensor(images[batch]), rng=dropout_rng)
            loss = T.softmax_cross_entropy(logits, labels[batch])
            losses.append(loss.item())
            T.backward(loss)
            for p, v in zip(params, velocity):
                v *= momentum
                v += p.grad if p.grad is not None else 0.0
                p.array -= learning_rate * v
                p.zero_grad()
        history.append(float(np.mean(losses)))
    for p in params:
        p.requires_grad = False
    return history


def tape_nodes(loss) -> list:
    """Every tensor reachable from ``loss`` through recorded parent links."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def backward_retaining(loss) -> None:
    """tensor.backward's replay without its release.

    The same nodes run their rules in the same order (reverse creation), but
    every interior grad, rule and parent link stays alive until the end.
    """
    loss.grad = np.ones_like(loss.array)
    for node in sorted(tape_nodes(loss), key=lambda t: t._id, reverse=True):
        if node._backward_rule is not None and node.grad is not None:
            node._backward_rule(node.grad)


def conv_layer_unfused(x, kernels, bias, padding=0, relu=False):
    """tensor.conv_layer as the chain of tape operations it fuses: conv2d,
    add of the bias reshaped to (C_out, 1, 1), then relu when ``relu``."""
    import reprolab.tensor as T

    out = T.add(T.conv2d(x, kernels, padding=padding), T.reshape(bias, (-1, 1, 1)))
    return T.relu(out) if relu else out


def finite_diff_check(f, x, h: float = 1e-5) -> float:
    """Max relative disagreement between reverse-mode and central differences.

    ``f`` maps a Tensor to a scalar Tensor; ``x`` is the Tensor to check at.
    Returns max over coordinates of |analytic - central| / max(1, |central|).
    """
    import reprolab.tensor as T
    from reprolab.errors import NumericError, ShapeError

    leaf = T.Tensor(x.array.copy(), requires_grad=True)
    out = f(leaf)
    if out.array.size != 1:
        raise ShapeError("finite_diff_check requires a scalar-valued function")
    T.backward(out)
    analytic = (np.zeros_like(leaf.array) if leaf.grad is None else leaf.grad).reshape(-1)

    flat = x.array.copy().reshape(-1)
    worst = 0.0
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f(T.Tensor(flat.reshape(x.shape).copy())).item()
            flat[i] = orig - h
            lo = f(T.Tensor(flat.reshape(x.shape).copy())).item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError(f"non-finite function value near coordinate {i}")
            central = (hi - lo) / (2.0 * h)
            err = abs(analytic[i] - central) / max(1.0, abs(central))
            worst = max(worst, err)
    return worst


def standardization_whole_array(images: np.ndarray, input_shape) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std over (N, H, W) of every image centred in a zero
    frame of ``input_shape``, a single channel repeated, with a zero std read
    as 1: the fit on the whole network-size array at once."""
    n, _, h, w = images.shape
    c, height, width = input_shape
    arr = np.zeros((n, c, height, width))
    row, col = (height - h) // 2, (width - w) // 2
    arr[:, :, row : row + h, col : col + w] = images
    std = arr.std(axis=(0, 2, 3))
    return arr.mean(axis=(0, 2, 3)), np.where(std < 1e-8, 1.0, std)
