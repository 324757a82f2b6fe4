"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: enough primitives to express padded
convolutional classifiers and to differentiate their loss with respect to
input pixels. Each operation records its inputs and a backward rule on the
output tensor; ``backward`` replays the recorded rules in reverse creation
order, which is a fixed topological order of the graph, so gradient
accumulation is deterministic.

All arrays are C-contiguous float64. At the API, operations never write to
their inputs; inside, ``conv_layer`` adds its bias and applies its ReLU in
place on the fresh convolution output, so a conv layer keeps one array on
the tape. ``backward`` fills ``grad`` buffers and consumes the graph it
replays: it frees each interior node's gradient, rule and parent links as
soon as the rule has run, so only leaves keep a ``grad`` and a graph is
replayed at most once. A node owns its gradient buffer, so its rule may
write into it or hand it to one parent without a copy.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import FormatError, LabelError, NumericError, ReproLabError, ShapeError

# Every tensor gets a process-wide creation index; backward replays in its order.
_node_ids = itertools.count()
# Graph recording switch, turned off inside no_grad. reprolab starts no threads
# (sweeps run in processes), so one flag per process suffices.
_recording = True

# glibc serves a block of M_MMAP_THRESHOLD bytes or more from a mapping of its
# own, unmapped on free, and returns the heap's free top to the kernel once it
# exceeds M_TRIM_THRESHOLD. A batch-50 step frees about 30 MB of tape arrays and
# allocates them again on the next step, so under the defaults each step faults
# those pages back in. Both thresholds are raised: setting one fixes the other
# at its default (glibc stops adapting them), which faults more than neither.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_KEEP_BYTES = 64 << 20


def _keep_heap_pages(libc) -> bool:
    """Raise both thresholds to _HEAP_KEEP_BYTES through ``libc``'s mallopt;
    whether both took. The trim threshold is set only once the mmap threshold
    took. Does nothing where ``libc`` has no mallopt."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP_BYTES) == 1
            and mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP_BYTES) == 1)


# Set at import, so every process that computes with reprolab has it: forked
# workers inherit it and spawned ones import this module.
_keep_heap_pages(ctypes.CDLL(None) if os.name == "posix" else None)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation-only forwards)."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A dense float64 array plus optional gradient and tape bookkeeping.

    ``array`` is the shaped C-order buffer. ``grad`` is allocated lazily
    during backward and has the same shape as ``array``.
    """

    __slots__ = ("array", "requires_grad", "grad", "_parents", "_backward_rule", "_id")

    def __init__(self, array, requires_grad: bool = False):
        arr = np.asarray(array, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to 1-d; only copy when
        # the layout actually needs fixing.
        self.array = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_rule: Callable[[np.ndarray], None] | None = None
        self._id = next(_node_ids)

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def item(self) -> float:
        if self.array.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.array.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def backward(self) -> None:
        backward(self)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make_node(array: np.ndarray, parents: Sequence[Tensor],
               backward_rule: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(array)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_rule = backward_rule
    return out


def _accumulate(t: Tensor, grad: np.ndarray, shared: bool = False) -> None:
    """Add ``grad`` into ``t.grad``.

    A rule hands over a fresh array or its node's own gradient, which backward
    drops once the rule has run; ``t`` adopts it as its gradient without a
    copy. ``shared`` marks an array that another parent has already adopted,
    which is copied first.
    """
    if t.grad is None:
        adopt = not shared and isinstance(grad, np.ndarray) and grad.flags.c_contiguous
        t.grad = grad if adopt else np.array(grad, dtype=np.float64)
    else:
        t.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise and linear primitives ----------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.array + b.array
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def rule(grad: np.ndarray) -> None:
        ga = None
        if a.requires_grad:
            ga = _unbroadcast(grad, a.shape)
            _accumulate(a, ga)
        if b.requires_grad:
            gb = _unbroadcast(grad, b.shape)
            _accumulate(b, gb, shared=gb is ga)

    return _make_node(out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.array * b.array
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def rule(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad * b.array, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad * a.array, b.shape))

    return _make_node(out, (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def rule(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, grad * c)

    return _make_node(a.array * c, (a,), rule)


def tensor_sum(a: Tensor) -> Tensor:
    def rule(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, np.full_like(a.array, float(grad)))

    return _make_node(np.asarray(a.array.sum()), (a,), rule)


def tensor_mean(a: Tensor) -> Tensor:
    n = a.array.size

    def rule(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, np.full_like(a.array, float(grad) / n))

    return _make_node(np.asarray(a.array.mean()), (a,), rule)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.array.reshape(shape)

    def rule(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, grad.reshape(a.shape))

    return _make_node(out, (a,), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.array.ndim != 2 or b.array.ndim != 2:
        raise ShapeError(f"matmul expects 2-D tensors, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ between {a.shape} and {b.shape}")
    out = a.array @ b.array

    def rule(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, grad @ b.array.T)
        if b.requires_grad:
            _accumulate(b, a.array.T @ grad)

    return _make_node(out, (a, b), rule)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.array, 0.0)

    def rule(grad: np.ndarray) -> None:
        if a.requires_grad:
            grad *= a.array > 0.0
            _accumulate(a, grad)

    return _make_node(out, (a,), rule)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; the keep mask is drawn from ``rng``."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def rule(grad: np.ndarray) -> None:
        if a.requires_grad:
            grad *= keep
            _accumulate(a, grad)

    return _make_node(a.array * keep, (a,), rule)


# -- convolution and pooling ---------------------------------------------------
#
# Convolution runs on a "wrapped grid": the zero-padded batch is flattened to a
# channel-major (C, N*Hp*Wp) matrix, whereupon every kernel offset (a, b)
# becomes one GEMM against a contiguous slice shifted by a*Wp + b. Offsets wrap
# across row and sample boundaries, but every wrapped output cell lands outside
# the valid output rows/columns and is cropped, and the backward passes place
# zeros there, so no garbage propagates. This avoids materializing im2col
# patch matrices (a 9x data blow-up for 3x3 kernels) entirely. BLAS adds each
# offset's product into its destination itself (dgemm with beta = 1), which
# rounds exactly like forming the product and adding it while K (the channels
# summed over) fits one OpenBLAS block. So no product is stored and added in a
# separate pass, except past _ACC_MAX_K channels (_gemm_loop).


def _wrap_grid(x4: np.ndarray, padding: int, kw: int) -> np.ndarray:
    """Channel-major zero-padded batch grid with a kw-1 wrap margin."""
    n, c, h, w = x4.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    grid = np.zeros((c, n * hp * wp + kw - 1))
    view = grid[:, : n * hp * wp].reshape(c, n, hp, wp)
    view[:, :, padding : padding + h, padding : padding + w] = x4.transpose(1, 0, 2, 3)
    return grid


@functools.cache
def _openblas():
    """numpy's scipy-openblas library as loaded in this process, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            get, set_ = (lib.scipy_openblas_get_num_threads64_,
                         lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


@contextmanager
def blas_threads(count: int):
    """Run the body at ``count`` OpenBLAS threads, then restore the count found.
    Does nothing where numpy's BLAS does not export the scipy-openblas thread
    functions."""
    lib = _openblas()
    if lib is None:
        yield
        return
    found = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(count)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(found)


@functools.cache
def _dgemm():
    """That library's ILP64 ``cblas_dgemm``, or None where it is not exported."""
    dgemm = getattr(_openblas(), "scipy_cblas_dgemm64_", None)
    if dgemm is not None:
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        dgemm.argtypes = [ctypes.c_int] * 3 + [i64] * 3 + [f64, ptr, i64, ptr, i64, f64, ptr, i64]
        dgemm.restype = None
    return dgemm


# CBLAS enumerators: row-major storage, no transposition.
_ROW_MAJOR, _NO_TRANS = 101, 111

# OpenBLAS adds a product into C one block of K at a time. Past one block (K
# above 384 with its SkylakeX kernels, above 256 with Haswell's), beta = 1
# rounds after each block's addition, where np.matmul and ``+=`` round the
# whole product first. Accumulating calls stay within this K, half the
# smaller of those blocks.
_ACC_MAX_K = 128


def _blas_matrix(arr: np.ndarray) -> bool:
    """Whether BLAS can walk ``arr`` as a row-major float64 matrix: elements of a
    row adjacent, rows a whole number of elements apart and not overlapping.
    Strides along an axis of extent 1 are never followed."""
    if arr.dtype != np.float64 or arr.ndim != 2:
        return False
    (rows, cols), (row, col) = arr.shape, arr.strides
    return (cols <= 1 or col == 8) and (rows <= 1 or (row % 8 == 0 and row >= 8 * cols))


def _address(arr: np.ndarray) -> int:
    # Unlike ``arr.ctypes``, this keeps no cache alive after the first call.
    return arr.__array_interface__["data"][0]


# Segment length (elements per channel) for the offset GEMM loops; sized so a
# segment of the grid plus accumulators stays cache-resident.
_SEG = 8192


def _gemm_loop(c: np.ndarray, mats, b: np.ndarray, span: int,
               c_offsets, b_offsets, betas) -> None:
    """One offset loop of GEMMs, in place: for each _SEG-column segment [s0, s1)
    of [0, span), then for each k in order,
    c[:, s0 + c_offsets[k] : s1 + c_offsets[k]] =
        mats[k] @ b[:, s0 + b_offsets[k] : s1 + b_offsets[k]] + betas[k] * (that slice of c),
    for betas of 0 or 1.

    ``c``, ``b`` and every ``mats[k]`` are 2-D float64 arrays, or basic slices
    of them, whose rows have unit element stride; ``c`` shares no memory with
    the others. Shapes, strides, writability and every column range, shifted
    by the largest offset, are checked once for the loop, before any call.
    Each call is the cblas_dgemm that np.matmul makes for that segment's
    operands, with beta = 1 doing the addition, issued from the arrays' base
    addresses plus element offsets. With an extent of 1, with beta = 1 and K
    above _ACC_MAX_K, or without the exported dgemm, the call is np.matmul
    and ``+=`` on the segment's views, which is what numpy computes then.
    """
    if not len(mats) == len(c_offsets) == len(b_offsets) == len(betas):
        raise ValueError("_gemm_loop takes one offset pair and beta per matrix")
    if any(beta not in (0, 1) for beta in betas):
        raise ValueError(f"_gemm_loop takes betas 0 or 1, got {list(betas)}")
    for arr in (c, b, *mats):
        if not _blas_matrix(arr):
            raise ShapeError(f"_gemm_loop needs 2-D float64 rows of unit stride, got "
                             f"{arr.dtype} {arr.shape} with strides {arr.strides}")
    m, k = c.shape[0], b.shape[0]
    if any(a.shape != (m, k) for a in mats):
        raise ShapeError(f"_gemm_loop: shapes {c.shape} = {[a.shape for a in mats]} @ {b.shape} "
                         "do not match")
    if not c.flags.writeable:
        raise ShapeError("_gemm_loop: the output is read-only")
    # dgemm walks raw addresses, which numpy's bounds checks never see.
    for name, arr, offsets in (("output", c, c_offsets), ("operand", b, b_offsets)):
        if span < 0 or min(offsets) < 0 or span + max(offsets) > arr.shape[1]:
            raise ShapeError(f"_gemm_loop: columns [{min(offsets)}, {span + max(offsets)}) run "
                             f"past the {arr.shape[1]}-column {name}")
    dgemm = _dgemm()
    calls = [(a, _address(a), a.strides[0] // 8, int(co), int(bo), float(beta),
              bool(beta) and k > _ACC_MAX_K)
             for a, co, bo, beta in zip(mats, c_offsets, b_offsets, betas)]
    pc, ldc, pb, ldb = _address(c), c.strides[0] // 8, _address(b), b.strides[0] // 8
    for s0 in range(0, span, _SEG):
        n = min(_SEG, span - s0)
        blas = dgemm is not None and min(m, n, k) > 1
        for a, pa, lda, co, bo, beta, past_block in calls:
            if blas and not past_block:
                dgemm(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, m, n, k, 1.0, pa, lda,
                      pb + 8 * (s0 + bo), ldb, beta, pc + 8 * (s0 + co), ldc)
            elif beta:
                c[:, s0 + co : s0 + co + n] += a @ b[:, s0 + bo : s0 + bo + n]
            else:
                np.matmul(a, b[:, s0 + bo : s0 + bo + n], out=c[:, s0 + co : s0 + co + n])


def _offset_gemm(out2: np.ndarray, wmats, grid: np.ndarray, offsets, span: int) -> None:
    """out2[:, q] = sum_k wmats[k] @ grid[:, q + offsets[k]] for q < span, segment by
    segment, summed in offset order."""
    _gemm_loop(out2, wmats, grid, span, [0] * len(offsets), offsets,
               [0] + [1] * (len(offsets) - 1))


def _offset_gemm_scatter(dgrid: np.ndarray, wmats, gwin: np.ndarray, offsets, span: int) -> None:
    """dgrid[:, q + offsets[k]] += wmats[k] @ gwin[:, q], segment by segment."""
    _gemm_loop(dgrid, wmats, gwin, span, offsets, [0] * len(offsets), [1] * len(offsets))


def _offset_gemm_outer(gwin: np.ndarray, grid: np.ndarray, offsets, span: int,
                       c_out: int, c_in: int) -> np.ndarray:
    """Per-offset outer products dW[k] = gwin @ grid[:, off:off+span].T, segmented."""
    dw = np.zeros((len(offsets), c_out, c_in))
    tmp = np.empty((c_out, c_in))
    for s0 in range(0, span, _SEG):
        s1 = min(s0 + _SEG, span)
        gseg = gwin[:, s0:s1]
        for k, off in enumerate(offsets):
            np.matmul(gseg, grid[:, s0 + off : s1 + off].T, out=tmp)
            dw[k] += tmp
    return dw


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation with zero padding.

    ``x`` is (C_in, H, W) or batched (N, C_in, H, W); ``kernels`` is
    (C_out, C_in, kH, kW). Output extent is floor((H + 2p - kH)/stride) + 1.
    """
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    if kernels.array.ndim != 4:
        raise ShapeError(f"conv2d kernels must be 4-D, got shape {kernels.shape}")
    if x.array.ndim not in (3, 4):
        raise ShapeError(f"conv2d input must be 3-D or 4-D, got shape {x.shape}")
    single = x.array.ndim == 3
    xa = x.array[None] if single else x.array
    n, c_in, h, w = xa.shape
    c_out, k_cin, kh, kw = kernels.shape
    if k_cin != c_in:
        raise ShapeError(f"conv2d: input has {c_in} channels but kernels expect {k_cin}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}")

    wk = kernels.array
    grid = _wrap_grid(xa, padding, kw)
    offsets = [a * wp + b for a in range(kh) for b in range(kw)]
    # Valid stride-1 output extents; the GEMM window covers every grid row
    # that exists for all kh row offsets.
    h1, w1 = hp - kh + 1, wp - kw + 1
    span = (n * hp - (kh - 1)) * wp
    wmats = [np.ascontiguousarray(wk[:, :, a, b]) for a in range(kh) for b in range(kw)]
    # The accumulator has the grid's geometry, so the output is a strided view
    # of it; the cells past ``span`` are never written and never read.
    acc = np.empty((c_out, n * hp * wp))
    _offset_gemm(acc, wmats, grid, offsets, span)
    # Only the weight gradient reads the padded input again.
    weight_grad = kernels.requires_grad
    if not weight_grad:
        grid = None
    out_h, out_w = (h1 + stride - 1) // stride, (w1 + stride - 1) // stride
    out = np.empty((n, c_out, out_h, out_w))
    out.transpose(1, 0, 2, 3)[...] = acc.reshape(c_out, n, hp, wp)[:, :, :h1:stride, :w1:stride]

    def rule(grad_out: np.ndarray) -> None:
        grad = grad_out[None] if single else grad_out
        # Output gradient scattered (with stride dilation) onto the padded grid
        # geometry; zeros elsewhere kill all wrapped contributions.
        gfull = np.zeros((c_out, n * hp * wp))
        gview = gfull.reshape(c_out, n, hp, wp)
        gview[:, :, : (out_h - 1) * stride + 1 : stride, : (out_w - 1) * stride + 1 : stride] = (
            grad.transpose(1, 0, 2, 3)
        )
        gwin = gfull[:, :span]
        if weight_grad:
            dw_flat = _offset_gemm_outer(gwin, grid, offsets, span, c_out, c_in)
            _accumulate(kernels, dw_flat.transpose(1, 2, 0).reshape(wk.shape))
        if x.requires_grad:
            dgrid = np.zeros((c_in, n * hp * wp + kw - 1))
            wmats_t = [np.ascontiguousarray(m.T) for m in wmats]
            _offset_gemm_scatter(dgrid, wmats_t, gwin, offsets, span)
            # Free the scattered output gradient before dx is allocated.
            del gfull, gview, gwin
            dview = dgrid[:, : n * hp * wp].reshape(c_in, n, hp, wp)
            dx = np.empty((n, c_in, h, w))
            dx.transpose(1, 0, 2, 3)[...] = dview[:, :, padding : padding + h, padding : padding + w]
            _accumulate(x, dx[0] if single else dx)

    return _make_node(out[0] if single else out, (x, kernels), rule)


def conv_layer(x: Tensor, kernels: Tensor, bias: Tensor, padding: int = 0,
               relu: bool = False) -> Tensor:
    """A conv layer as one node: conv2d(x, kernels, padding=padding) plus the
    per-channel ``bias`` (C_out,), then a ReLU when ``relu``.

    The bias and the ReLU are applied in place on conv2d's fresh output, so
    the tape keeps one array for the layer; the rule masks the node's own
    gradient in place before conv2d's rule reads it. Values and gradients
    equal relu(add(conv2d(...), reshape(bias, (-1, 1, 1))))'s bit for bit.
    """
    out = conv2d(x, kernels, padding=padding)
    c_out = kernels.shape[0]
    if bias.shape != (c_out,):
        raise ShapeError(f"conv_layer: bias shape {bias.shape} does not match {c_out} kernels")
    # Looked up after the call, so a conv2d wrapped in this module's namespace
    # keeps its wrapped rule.
    conv_rule = out._backward_rule
    activations = out.array
    activations += bias.array.reshape(c_out, 1, 1)
    if relu:
        np.maximum(activations, 0.0, out=activations)

    def rule(grad: np.ndarray) -> None:
        if relu:
            grad *= activations > 0.0
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(grad, (c_out, 1, 1)).reshape(c_out))
        if conv_rule is not None:
            conv_rule(grad)

    if _recording and (conv_rule is not None or bias.requires_grad):
        out.requires_grad = True
        out._parents = (x, kernels, bias)
        out._backward_rule = rule
    return out


def maxpool2d(x: Tensor, window: int = 2) -> Tensor:
    """Non-overlapping max pooling; ties route the gradient to the lowest flat index."""
    if x.array.ndim not in (3, 4):
        raise ShapeError(f"maxpool2d input must be 3-D or 4-D, got shape {x.shape}")
    single = x.array.ndim == 3
    xa = x.array[None] if single else x.array
    n, c, h, w = xa.shape
    if h % window or w % window:
        raise ShapeError(f"maxpool2d: extents {h}x{w} not divisible by window {window}")
    # One strided view per in-window offset, in row-major offset order; the
    # backward pass gives ties to the first offset attaining the maximum,
    # i.e. the lowest flat index in the source tensor.
    in_window = [(a, b) for a in range(window) for b in range(window)]
    slices = [xa[:, :, a::window, b::window] for a, b in in_window]
    out = np.maximum(slices[0], slices[1]) if len(slices) > 1 else slices[0].copy()
    for s in slices[2:]:
        np.maximum(out, s, out=out)

    def rule(grad_out: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad = grad_out[None] if single else grad_out
        dx = np.zeros_like(xa)
        taken = np.zeros(out.shape, dtype=bool)
        for k, (a, b) in enumerate(in_window):
            winner = (slices[k] == out) & ~taken
            dx[:, :, a::window, b::window] = grad * winner
            taken |= winner
        _accumulate(x, dx[0] if single else dx)

    return _make_node(out[0] if single else out, (x,), rule)


# -- shared-frame windows -------------------------------------------------------


def crop(a: Tensor, rows: tuple[int, int], cols: tuple[int, int]) -> Tensor:
    """The ``rows`` x ``cols`` window of a batched (N, C, H, W) tensor."""
    (r0, r1), (c0, c1) = rows, cols

    def rule(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.array)
            full[:, :, r0:r1, c0:c1] = grad
            _accumulate(a, full)

    return _make_node(a.array[:, :, r0:r1, c0:c1], (a,), rule)


def paste(canvas: Tensor, patch: Tensor, top: int, left: int) -> Tensor:
    """A batch-1 ``canvas`` broadcast over ``patch``'s batch, with ``patch`` at (top, left).

    ``canvas`` is (1, C, H, W) and ``patch`` (N, C, h, w); the result is
    (N, C, H, W). The canvas's gradient sums the batch outside the patch.
    """
    n, _, h, w = patch.shape
    window = (slice(None), slice(None), slice(top, top + h), slice(left, left + w))
    out = np.repeat(canvas.array, n, axis=0)
    out[window] = patch.array

    def rule(grad: np.ndarray) -> None:
        if patch.requires_grad:
            _accumulate(patch, grad[window])
        if canvas.requires_grad:
            shared = grad.sum(axis=0, keepdims=True)
            shared[window] = 0.0
            _accumulate(canvas, shared)

    return _make_node(out, (canvas, patch), rule)


# -- loss ----------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Stabilized by row-max subtraction; gradient is (softmax - onehot)/n.
    """
    if logits.array.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (n, classes) logits, got {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch size {n}")
    bad = (labels < 0) | (labels >= c)
    if bad.any():
        idx = int(np.argmax(bad))
        raise LabelError(f"label {labels[idx]} at index {idx} outside [0, {c})")

    shifted = logits.array - logits.array.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), labels].mean()

    def rule(grad: np.ndarray) -> None:
        if logits.requires_grad:
            probs = np.exp(log_probs)
            probs[np.arange(n), labels] -= 1.0
            _accumulate(logits, probs * (float(grad) / n))

    return _make_node(np.asarray(loss), (logits,), rule)


# -- backward pass ---------------------------------------------------------------


def _replayed(grad: np.ndarray) -> None:
    raise ReproLabError(
        "backward reached a node whose graph an earlier backward already replayed and "
        "freed; record the forward again to take another gradient"
    )


def backward(loss: Tensor) -> None:
    """Accumulate gradients of ``loss`` into every reachable requires_grad tensor.

    Nodes are replayed in reverse creation order (a fixed topological order of
    the recorded operations), so fan-out sums always reduce in the same order.
    The replay consumes the graph: once an interior node's rule has run, the
    node drops its grad, rule and parents, so the gradients and activations of
    the layers already passed are freed while the replay walks toward the
    inputs. Leaves (tensors without a rule) keep their ``grad``. A later
    backward that reaches a replayed node raises ``ReproLabError``.
    """
    if loss.array.size != 1:
        raise ShapeError(f"backward() requires a scalar loss, got shape {loss.shape}")

    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    # Ascending, so popping from the end replays in reverse creation order and
    # takes each node off the work list as it goes.
    nodes.sort(key=lambda t: t._id)

    loss.grad = np.ones_like(loss.array)
    while nodes:
        node = nodes.pop()
        if node._backward_rule is None:
            continue
        if node.grad is not None:
            node._backward_rule(node.grad)
        node.grad = None
        node._backward_rule = _replayed
        node._parents = ()


# -- gradient checking -------------------------------------------------------------


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative disagreement between reverse-mode and central differences.

    Returns max over coordinates of |analytic - central| / max(1, |central|).
    """
    leaf = Tensor(x.array.copy(), requires_grad=True)
    out = f(leaf)
    if out.array.size != 1:
        raise ShapeError("finite_diff_check requires a scalar-valued function")
    backward(out)
    analytic = (np.zeros_like(leaf.array) if leaf.grad is None else leaf.grad).reshape(-1)

    flat = x.array.copy().reshape(-1)
    worst = 0.0
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f(Tensor(flat.reshape(x.shape).copy())).item()
            flat[i] = orig - h
            lo = f(Tensor(flat.reshape(x.shape).copy())).item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError(f"non-finite function value near coordinate {i}")
            central = (hi - lo) / (2.0 * h)
            err = abs(analytic[i] - central) / max(1.0, abs(central))
            worst = max(worst, err)
    return worst


# -- serialization -------------------------------------------------------------------

_MAGIC = b"TNSR"


def replace_file(path, data) -> None:
    """Write ``data`` (str as UTF-8, or bytes) through a temporary file and a
    rename, so the file at ``path`` is always either the previous one or the
    whole new one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, obj) -> None:
    """Write ``obj`` as the JSON layout of every reprolab manifest and sidecar."""
    replace_file(path, json.dumps(obj, indent=1, sort_keys=True))


def save_tensor(t: Tensor, path) -> None:
    """Write little-endian binary: magic, u32 rank, u64 extents, float64 payload."""
    header = _MAGIC + struct.pack(f"<I{len(t.shape)}Q", len(t.shape), *t.shape)
    # join reads the array's buffer, so the payload is copied once, into the result.
    replace_file(path, b"".join([header, t.array.astype("<f8", copy=False)]))


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        (rank,) = struct.unpack("<I", fh.read(4))
        shape = tuple(struct.unpack("<Q", fh.read(8))[0] for _ in range(rank))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        payload = fh.read(8 * count)
        if len(payload) != 8 * count:
            raise FormatError(f"{path}: truncated payload, expected {count} float64 values")
        arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    return Tensor(arr)
