"""Core reverse-mode autodiff: the :class:`Tensor` class and primitive ops.

Implementation notes
--------------------
* The graph is built eagerly: every primitive op returns a new ``Tensor``
  carrying ``_parents`` (the input tensors) and ``_vjp``, a closure that maps
  the upstream gradient array to one gradient array per parent (or ``None``
  for parents that do not require grad).
* Broadcasting is handled once, centrally, by :func:`unbroadcast`: forward
  passes lean on NumPy's native broadcasting, and each vjp reduces the
  upstream gradient back to the parent's shape by summing the broadcast
  axes.  This mirrors how JAX/PyTorch implement it and is the single most
  bug-prone part of a hand-rolled engine, hence the dedicated hypothesis
  test battery.
* Gradients are always dense ``float64`` arrays.  At the model sizes used in
  this reproduction (≤ a few million parameters) float64 keeps the
  finite-difference validation tight without a performance cliff.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.tensor import amp as _amp

# --------------------------------------------------------------------------
# global grad-mode switch
# --------------------------------------------------------------------------

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Whether newly created ops will record the autodiff graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (evaluation mode).

    Inside the block every op behaves like plain NumPy: outputs are leaf
    tensors with ``requires_grad=False``, so evaluation passes cost no graph
    bookkeeping and hold no references to activations.
    """
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


# --------------------------------------------------------------------------
# broadcasting helpers
# --------------------------------------------------------------------------


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``.

    Sums over axes that were added by broadcasting and over axes where the
    original dimension was 1 but the broadcast dimension is larger.
    """
    if grad.shape == shape:
        return grad
    # sum away leading axes NumPy prepended
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum axes that were stretched from 1
    squeeze_axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad.reshape(shape)


def _asarray(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic on a plain array.

    Evaluates ``1 / (1 + exp(-x))`` for ``x >= 0`` and ``e / (1 + e)``
    with ``e = exp(x)`` otherwise, branch-free: both branches share
    ``e = exp(-|x|)`` and one ``where`` picks the numerator, so no boolean
    gather/scatter runs.  The fused kernels' in-place form
    (``repro.tensor.fused._sigmoid_into``) applies the same arithmetic, so
    both engine paths produce bit-identical forward values.
    """
    e = np.exp(-np.abs(x))
    num = np.where(x >= 0, 1.0, e)
    e += 1.0
    np.divide(num, e, out=num)
    return num


# --------------------------------------------------------------------------
# replay protocol (consumed by repro.compile)
# --------------------------------------------------------------------------
#
# Every op passes ``Tensor._make`` an optional ``replay`` describing how to
# recompute its forward value *in place* — writing into the same output
# buffer and refreshing any auxiliary arrays its vjp closed over — after the
# op's inputs have been updated in place.  The engine itself ignores the
# argument entirely; only an attached :class:`repro.compile.GraphRecorder`
# reads it, so the eager path pays one closure allocation per node and
# nothing else.  Three values are meaningful:
#
# * ``None`` — the op cannot be replayed (a capture containing it falls
#   back to eager execution);
# * :data:`REPLAY_VIEW` — the output is a NumPy view of a parent's buffer
#   (reshape/transpose/slice): replay is a no-op because the view tracks
#   the parent's in-place update;
# * a zero-argument callable — re-runs the forward arithmetic into the
#   captured buffers, bit-identically to the eager computation.  A callable
#   with a truthy ``stochastic`` attribute consumes RNG state (dropout);
#   plans containing one skip first-replay validation but still replay
#   deterministically relative to the shared generator stream.

REPLAY_VIEW = "view"


def stochastic_replay(fn):
    """Mark ``fn`` as an RNG-consuming replay closure (see above)."""
    fn.stochastic = True
    return fn


# --------------------------------------------------------------------------
# Tensor
# --------------------------------------------------------------------------


class Tensor:
    """A NumPy array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts; stored as ``float64``.
    requires_grad:
        Leaf flag.  Non-leaf tensors (op outputs) derive their flag from
        their parents and the global grad mode.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = _asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._op: str = "leaf"

    # -- construction of op outputs ---------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]],
        op: str,
        replay=None,
    ) -> "Tensor":
        # ``replay`` is not stored on the tensor: it only exists for the
        # duration of this call, where an attached recorder (profiler-style
        # monkey-patch, see repro.compile.recorder) can capture it.
        if _amp._AUTOCAST and replay is not REPLAY_VIEW:
            # emulated fp16 storage: op outputs round to the float16 grid,
            # out of place so views keep sharing their parents' buffers
            data = _amp.fp16_roundtrip(data)
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
            out._op = op
        return out

    # -- basic introspection ----------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, threshold=8)}{grad_flag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy — do not mutate in graph code)."""
        return self.data

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing this tensor's data, outside the graph."""
        t = Tensor(self.data)
        return t

    def zero_grad(self) -> None:
        self.grad = None

    # -- backward ----------------------------------------------------------

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1 for scalar outputs (the common loss case).
        Gradients accumulate into ``.grad`` of every reachable leaf with
        ``requires_grad=True``; intermediate gradients are discarded once
        consumed to bound peak memory.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        else:
            grad = _asarray(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape "
                    f"{self.data.shape}"
                )

        topo = self._topological_order()
        pending: dict[int, np.ndarray] = {id(self): grad}
        for node in topo:
            node_grad = pending.pop(id(node), None)
            if node_grad is None:
                continue
            if node._vjp is None:
                # leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            parent_grads = node._vjp(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pgrad
                else:
                    pending[key] = pgrad

    def _topological_order(self) -> list["Tensor"]:
        """Reverse topological order (self first) via iterative DFS."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        # asarray: 0-d operands make ufuncs return NumPy *scalars*, but
        # the replay closure needs a real array buffer it can write into
        out_data = np.asarray(a.data + b.data)
        out = Tensor._make(
            out_data,
            (a, b),
            lambda g: (unbroadcast(g, a.shape), unbroadcast(g, b.shape)),
            "add",
            replay=lambda: np.add(a.data, b.data, out=out_data),
        )
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        out_data = np.asarray(a.data - b.data)

        # Like matmul's vjp, the backward buffers persist in the closure:
        # eager builds a fresh node (and allocates once) per step exactly
        # as before, while compiled replay reuses the same closure — and
        # with it these buffers — across steps.  The in-place ufunc forms
        # run the identical operation sequence, so values are bit-equal.
        bwd: dict[str, np.ndarray] = {}

        def vjp(g: np.ndarray):
            nb = bwd.get("nb")
            if nb is None:
                nb = bwd["nb"] = np.empty_like(np.asarray(g))
            np.negative(g, out=nb)
            return (unbroadcast(g, a.shape), unbroadcast(nb, b.shape))

        return Tensor._make(
            out_data,
            (a, b),
            vjp,
            "sub",
            replay=lambda: np.subtract(a.data, b.data, out=out_data),
        )

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        out_data = np.asarray(a.data * b.data)
        bwd: dict[str, np.ndarray] = {}

        def vjp(g: np.ndarray):
            ga, gb = bwd.get("ga"), bwd.get("gb")
            if ga is None:
                ga = bwd["ga"] = np.empty_like(np.asarray(g))
                gb = bwd["gb"] = np.empty_like(np.asarray(g))
            np.multiply(g, b.data, out=ga)
            np.multiply(g, a.data, out=gb)
            return (unbroadcast(ga, a.shape), unbroadcast(gb, b.shape))

        return Tensor._make(
            out_data,
            (a, b),
            vjp,
            "mul",
            replay=lambda: np.multiply(a.data, b.data, out=out_data),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        out_data = np.asarray(a.data / b.data)
        bwd: dict[str, np.ndarray] = {}

        def vjp(g: np.ndarray):
            if not bwd:
                bwd["ga"] = np.empty_like(np.asarray(g))
                bwd["gb"] = np.empty_like(np.asarray(g))
                bwd["b2"] = np.empty_like(np.asarray(b.data))
            ga, gb, b2 = bwd["ga"], bwd["gb"], bwd["b2"]
            np.divide(g, b.data, out=ga)
            # -g * a / (b*b), step for step as the eager expression ran it
            np.negative(g, out=gb)
            np.multiply(gb, a.data, out=gb)
            np.multiply(b.data, b.data, out=b2)
            np.divide(gb, b2, out=gb)
            return (unbroadcast(ga, a.shape), unbroadcast(gb, b.shape))

        return Tensor._make(
            out_data,
            (a, b),
            vjp,
            "div",
            replay=lambda: np.divide(a.data, b.data, out=out_data),
        )

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self
        out_data = np.asarray(-a.data)
        bwd: dict[str, np.ndarray] = {}

        def vjp(g: np.ndarray):
            buf = bwd.get("g")
            if buf is None:
                buf = bwd["g"] = np.empty_like(np.asarray(g))
            np.negative(g, out=buf)
            return (buf,)

        return Tensor._make(
            out_data,
            (a,),
            vjp,
            "neg",
            replay=lambda: np.negative(a.data, out=out_data),
        )

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor ** only supports scalar exponents")
        a = self
        p = float(exponent)
        out_data = np.asarray(a.data**p)
        bwd: dict[str, np.ndarray] = {}

        def vjp(g: np.ndarray):
            buf = bwd.get("g")
            if buf is None:
                buf = bwd["g"] = np.empty_like(np.asarray(g))
            np.multiply(g, p, out=buf)
            # ``**`` keeps its special-exponent fast paths (bit-identical
            # to the eager expression), so only the two products are cached
            np.multiply(buf, a.data ** (p - 1), out=buf)
            return (buf,)

        return Tensor._make(
            out_data,
            (a,),
            vjp,
            "pow",
            # ``**`` has NumPy fast paths for special exponents; re-running
            # the exact expression keeps the replay bit-identical
            replay=lambda: np.copyto(out_data, a.data**p),
        )

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other) -> "Tensor":
        """Matrix product supporting 1-D, 2-D and batched (≥3-D) operands.

        Gradients follow the standard rules ``dA = g @ B^T``, ``dB = A^T @ g``
        with batch axes summed back via :func:`unbroadcast` on the batch
        dimensions.
        """
        other = as_tensor(other)
        a, b = self, other
        out_data = np.asarray(a.data @ b.data)

        # persistent backward buffers: a fresh eager node allocates them
        # once per step as before, but a compiled replay keeps this very
        # closure alive, so the two (often batched) gradient matmuls stop
        # reallocating multi-MB outputs every step; backward() copies
        # leaf grads out, so reuse is observationally identical
        bwd: dict[str, np.ndarray] = {}

        def vjp(g: np.ndarray):
            ad, bd = a.data, b.data
            if ad.ndim == 1 and bd.ndim == 1:
                # inner product: g is scalar
                return (g * bd, g * ad)
            if ad.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = (g[..., None, :] * bd).sum(axis=-1)
                ga = unbroadcast(ga, (ad.shape[0],))
                gb = ad[:, None] * g[..., None, :]
                return (ga, unbroadcast(gb, bd.shape))
            if bd.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = g[..., :, None] * bd
                gb = (ad * g[..., :, None]).sum(axis=tuple(range(ad.ndim - 1)))
                return (unbroadcast(ga, ad.shape), unbroadcast(gb, bd.shape))
            ga, gb = bwd.get("ga"), bwd.get("gb")
            if ga is None:
                ga = bwd["ga"] = g @ np.swapaxes(bd, -1, -2)
                gb = bwd["gb"] = np.swapaxes(ad, -1, -2) @ g
            else:
                np.matmul(g, np.swapaxes(bd, -1, -2), out=ga)
                np.matmul(np.swapaxes(ad, -1, -2), g, out=gb)
            return (unbroadcast(ga, ad.shape), unbroadcast(gb, bd.shape))

        if a.data.ndim >= 2 and b.data.ndim >= 2:
            replay = lambda: np.matmul(a.data, b.data, out=out_data)  # noqa: E731
        else:
            # 1-D operands: matmul's out= rules are awkward, copy the result
            replay = lambda: np.copyto(out_data, a.data @ b.data)  # noqa: E731

        return Tensor._make(out_data, (a, b), vjp, "matmul", replay=replay)

    # -- elementwise functions ----------------------------------------------

    def exp(self) -> "Tensor":
        a = self
        out_data = np.asarray(np.exp(a.data))
        return Tensor._make(
            out_data,
            (a,),
            lambda g: (g * out_data,),
            "exp",
            replay=lambda: np.exp(a.data, out=out_data),
        )

    def log(self) -> "Tensor":
        a = self
        out_data = np.asarray(np.log(a.data))
        return Tensor._make(
            out_data,
            (a,),
            lambda g: (g / a.data,),
            "log",
            replay=lambda: np.log(a.data, out=out_data),
        )

    def sqrt(self) -> "Tensor":
        a = self
        out_data = np.asarray(np.sqrt(a.data))
        return Tensor._make(
            out_data,
            (a,),
            lambda g: (g * 0.5 / out_data,),
            "sqrt",
            replay=lambda: np.sqrt(a.data, out=out_data),
        )

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.asarray(np.tanh(a.data))
        return Tensor._make(
            out_data,
            (a,),
            lambda g: (g * (1.0 - out_data * out_data),),
            "tanh",
            replay=lambda: np.tanh(a.data, out=out_data),
        )

    def sigmoid(self) -> "Tensor":
        a = self
        out_data = np.asarray(stable_sigmoid(a.data))
        return Tensor._make(
            out_data,
            (a,),
            lambda g: (g * out_data * (1.0 - out_data),),
            "sigmoid",
            replay=lambda: np.copyto(out_data, stable_sigmoid(a.data)),
        )

    def relu(self) -> "Tensor":
        a = self
        mask = np.asarray(a.data > 0)
        out_data = np.asarray(np.where(mask, a.data, 0.0))

        def replay():
            np.greater(a.data, 0, out=mask)  # the vjp reads this mask
            np.copyto(out_data, np.where(mask, a.data, 0.0))

        bwd: dict[str, np.ndarray] = {}

        def vjp(g: np.ndarray):
            buf = bwd.get("g")
            if buf is None:
                buf = bwd["g"] = np.empty_like(np.asarray(g))
            np.multiply(g, mask, out=buf)
            return (buf,)

        return Tensor._make(out_data, (a,), vjp, "relu", replay=replay)

    def abs(self) -> "Tensor":
        a = self
        out_data = np.asarray(np.abs(a.data))
        return Tensor._make(
            out_data,
            (a,),
            lambda g: (g * np.sign(a.data),),
            "abs",
            replay=lambda: np.abs(a.data, out=out_data),
        )

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        """Clamp values; gradient is passed through only inside the window."""
        a = self
        out_data = np.asarray(np.clip(a.data, low, high))
        inside = np.ones_like(a.data, dtype=bool)
        if low is not None:
            inside &= a.data >= low
        if high is not None:
            inside &= a.data <= high

        def replay():
            np.clip(a.data, low, high, out=out_data)
            inside.fill(True)
            if low is not None:
                np.logical_and(inside, a.data >= low, out=inside)
            if high is not None:
                np.logical_and(inside, a.data <= high, out=inside)

        return Tensor._make(
            out_data, (a,), lambda g: (g * inside,), "clip", replay=replay
        )

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        # asarray: full reductions yield NumPy scalars, but the replay
        # closure needs a real 0-d buffer it can write into with ``out=``
        out_data = np.asarray(a.data.sum(axis=axis, keepdims=keepdims))

        # persistent broadcast buffer: the input-sized gradient copy is the
        # whole cost of a reduction's backward, so compiled replay (which
        # keeps this closure alive) reuses it; eager still allocates once
        # per fresh node, exactly as before
        bwd: dict[str, np.ndarray] = {}

        def vjp(g: np.ndarray):
            if axis is not None:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % a.ndim for ax in axes)
                if not keepdims:
                    g = np.expand_dims(g, axes)
            full = np.broadcast_to(g, a.shape)
            buf = bwd.get("g")
            if buf is None:
                buf = bwd["g"] = np.empty(a.shape, dtype=full.dtype)
            np.copyto(buf, full)
            return (buf,)

        return Tensor._make(
            out_data,
            (a,),
            vjp,
            "sum",
            replay=lambda: a.data.sum(axis=axis, keepdims=keepdims, out=out_data),
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = np.asarray(a.data.mean(axis=axis, keepdims=keepdims))
        if axis is None:
            count = a.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= a.shape[ax % a.ndim]

        bwd: dict[str, np.ndarray] = {}

        def vjp(g: np.ndarray):
            if axis is not None:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % a.ndim for ax in axes)
                if not keepdims:
                    g = np.expand_dims(g, axes)
            full = np.broadcast_to(g / count, a.shape)
            buf = bwd.get("g")
            if buf is None:
                buf = bwd["g"] = np.empty(a.shape, dtype=full.dtype)
            np.copyto(buf, full)
            return (buf,)

        return Tensor._make(
            out_data,
            (a,),
            vjp,
            "mean",
            replay=lambda: a.data.mean(axis=axis, keepdims=keepdims, out=out_data),
        )

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; ties split gradient equally (subgradient)."""
        a = self
        out_data = np.asarray(a.data.max(axis=axis, keepdims=keepdims))

        def vjp(g: np.ndarray):
            if axis is None:
                full_out = out_data
                gg = g
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % a.ndim for ax in axes)
                if keepdims:
                    full_out, gg = out_data, g
                else:
                    full_out = np.expand_dims(out_data, axes)
                    gg = np.expand_dims(g, axes)
            mask = (a.data == full_out).astype(np.float64)
            mask /= mask.sum(
                axis=axis, keepdims=True
            ) if axis is not None else mask.sum()
            return (mask * gg,)

        return Tensor._make(
            out_data,
            (a,),
            vjp,
            "max",
            replay=lambda: a.data.max(axis=axis, keepdims=keepdims, out=out_data),
        )

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum reduction; ties split gradient equally (subgradient)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    def argmax(self, axis=None) -> np.ndarray:
        """Index of the maximum (plain ndarray — argmax has no gradient)."""
        return self.data.argmax(axis=axis)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance, built from differentiable primitives."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def norm(self) -> "Tensor":
        """Frobenius / L2 norm as a scalar tensor."""
        return (self * self).sum().sqrt()

    # -- shape manipulation ----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = a.data.reshape(shape)
        # reshape of a non-contiguous buffer copies; replay must re-copy
        if np.shares_memory(out_data, a.data):
            replay = REPLAY_VIEW
        else:
            replay = lambda: np.copyto(out_data, a.data.reshape(shape))
        return Tensor._make(
            out_data,
            (a,),
            lambda g: (g.reshape(a.shape),),
            "reshape",
            replay=replay,
        )

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        a = self
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        inverse = tuple(np.argsort(axes))
        return Tensor._make(
            a.data.transpose(axes),
            (a,),
            lambda g: (g.transpose(inverse),),
            "transpose",
            replay=REPLAY_VIEW,
        )

    def squeeze(self, axis: int) -> "Tensor":
        """Remove a size-1 axis."""
        if self.shape[axis] != 1:
            raise ValueError(
                f"cannot squeeze axis {axis} of size {self.shape[axis]}"
            )
        a = self
        return Tensor._make(
            np.squeeze(a.data, axis=axis),
            (a,),
            lambda g: (np.expand_dims(g, axis),),
            "squeeze",
            replay=REPLAY_VIEW,
        )

    def expand_dims(self, axis: int) -> "Tensor":
        """Insert a size-1 axis."""
        a = self
        return Tensor._make(
            np.expand_dims(a.data, axis),
            (a,),
            lambda g: (np.squeeze(g, axis=axis),),
            "expand_dims",
            replay=REPLAY_VIEW,
        )

    def split(self, sections: int, axis: int = 0) -> list["Tensor"]:
        """Split into ``sections`` equal parts along ``axis``.

        Each part is an independent graph node; gradients flow back to the
        corresponding slice of the parent (via the slicing backward).
        """
        size = self.shape[axis]
        if size % sections != 0:
            raise ValueError(
                f"axis of size {size} not divisible into {sections} sections"
            )
        step = size // sections
        out = []
        for start in range(0, size, step):
            index = [slice(None)] * self.ndim
            index[axis] = slice(start, start + step)
            out.append(self[tuple(index)])
        return out

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        a = self
        return Tensor._make(
            np.swapaxes(a.data, ax1, ax2),
            (a,),
            lambda g: (np.swapaxes(g, ax1, ax2),),
            "swapaxes",
            replay=REPLAY_VIEW,
        )

    def __getitem__(self, index) -> "Tensor":
        """Basic and integer-array indexing with scatter-add backward."""
        a = self
        out_data = np.asarray(a.data[index])

        def vjp(g: np.ndarray):
            grad = np.zeros_like(a.data)
            np.add.at(grad, index, g)
            return (grad,)

        # basic indexing yields a view; advanced (integer-array) indexing
        # copies, so replay must re-gather into the captured buffer
        if np.shares_memory(out_data, a.data):
            replay = REPLAY_VIEW
        else:
            replay = lambda: np.copyto(out_data, a.data[index])
        return Tensor._make(out_data, (a,), vjp, "getitem", replay=replay)

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the trailing two (spatial) axes symmetrically."""
        if pad == 0:
            return self
        a = self
        width = [(0, 0)] * (a.ndim - 2) + [(pad, pad), (pad, pad)]
        out_data = np.pad(a.data, width)
        sl = (Ellipsis, slice(pad, -pad), slice(pad, -pad))
        interior = out_data[sl]  # padding stays zero; only refresh the core
        return Tensor._make(
            out_data,
            (a,),
            lambda g: (g[sl],),
            "pad2d",
            replay=lambda: np.copyto(interior, a.data),
        )


# --------------------------------------------------------------------------
# free functions
# --------------------------------------------------------------------------


def as_tensor(value) -> Tensor:
    """Coerce a value into a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, float(value)), requires_grad=requires_grad)


def randn(*shape, rng, scale: float = 1.0, requires_grad: bool = False) -> Tensor:
    """Gaussian tensor from an explicit generator (no global RNG)."""
    from repro.utils.rng import as_generator

    gen = as_generator(rng)
    return Tensor(gen.standard_normal(shape) * scale, requires_grad=requires_grad)


def uniform(
    *shape, rng, low: float = -1.0, high: float = 1.0, requires_grad: bool = False
) -> Tensor:
    from repro.utils.rng import as_generator

    gen = as_generator(rng)
    return Tensor(gen.uniform(low, high, shape), requires_grad=requires_grad)


def arange(n: int) -> Tensor:
    return Tensor(np.arange(n, dtype=np.float64))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; backward slices the gradient back apart."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: np.ndarray):
        grads = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            grads.append(g[tuple(sl)])
        return grads

    slots = []
    for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
        sl = [slice(None)] * data.ndim
        sl[axis] = slice(start, stop)
        slots.append((data[tuple(sl)], t))

    def replay():
        for slot, t in slots:
            np.copyto(slot, t.data)

    return Tensor._make(data, tuple(tensors), vjp, "concat", replay=replay)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new axis; backward unstacks."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g: np.ndarray):
        return list(np.moveaxis(g, axis, 0))

    lanes = list(np.moveaxis(data, axis, 0))

    def replay():
        for lane, t in zip(lanes, tensors):
            np.copyto(lane, t.data)

    return Tensor._make(data, tuple(tensors), vjp, "stack", replay=replay)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.asarray(np.where(cond, a.data, b.data))

    def vjp(g: np.ndarray):
        return (
            unbroadcast(np.where(cond, g, 0.0), a.shape),
            unbroadcast(np.where(cond, 0.0, g), b.shape),
        )

    # ``cond`` is caller-supplied and captured as a graph constant; the
    # compiler's first-replay validation catches captures where it varies
    return Tensor._make(
        data,
        (a, b),
        vjp,
        "where",
        replay=lambda: np.copyto(data, np.where(cond, a.data, b.data)),
    )


def maximum(a, b) -> Tensor:
    """Elementwise max; ties send the full gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = np.asarray(a.data >= b.data)
    data = np.asarray(np.where(take_a, a.data, b.data))

    def vjp(g: np.ndarray):
        return (
            unbroadcast(np.where(take_a, g, 0.0), a.shape),
            unbroadcast(np.where(take_a, 0.0, g), b.shape),
        )

    def replay():
        np.greater_equal(a.data, b.data, out=take_a)
        np.copyto(data, np.where(take_a, a.data, b.data))

    return Tensor._make(data, (a, b), vjp, "maximum", replay=replay)


def minimum(a, b) -> Tensor:
    """Elementwise min; ties send the full gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = np.asarray(a.data <= b.data)
    data = np.asarray(np.where(take_a, a.data, b.data))

    def replay():
        np.less_equal(a.data, b.data, out=take_a)
        np.copyto(data, np.where(take_a, a.data, b.data))

    def vjp(g: np.ndarray):
        return (
            unbroadcast(np.where(take_a, g, 0.0), a.shape),
            unbroadcast(np.where(take_a, 0.0, g), b.shape),
        )

    return Tensor._make(data, (a, b), vjp, "minimum", replay=replay)
