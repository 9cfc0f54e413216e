"""Fused hot-path kernels: hand-derived forward + VJP pairs for the ops
that dominate every LEGW training step.

The reference engine builds the LSTM cell's per-timestep graph out of ~14
primitive nodes (concat, matmul, bias add, four gate slices, three
sigmoids, two tanhs, three elementwise combines), each carrying its own
closure, its own temporaries, and — for the gate slices — an
``np.add.at`` scatter in the backward pass.  At the model sizes the paper
trains (hidden 128–1024) that bookkeeping is a large fraction of step
time.  This module collapses each hot path into O(1) graph nodes with a
single hand-derived vector-Jacobian product:

* :func:`lstm_cell_step` — the full cell update (one matmul on the
  concatenated ``[x, h]`` against the packed gate kernel, gate
  nonlinearities and state update inside one node; 3 nodes total instead
  of ~14).  Forward values are **bit-identical** to the reference cell:
  both paths evaluate :func:`repro.tensor.tensor.stable_sigmoid`'s
  arithmetic and apply the same operations in the same order.
* :func:`lstm_layer` — a whole LSTM direction over ``(T, B, D)`` in one
  node.  Unmasked batches batch the input projection over all steps
  (round-off-level parity); ragged batches take a ``(T, B)`` mask and
  reproduce the per-step masked loop bit for bit, forward and backward.
* :func:`softmax_cross_entropy` — logits straight to scalar loss with the
  stable ``softmax - onehot`` backward materialised in-place on a single
  probability buffer (the reference allocates a dense target distribution
  plus three more logits-sized temporaries — which hurts at LM vocab
  sizes).
* :func:`layer_norm` — one node instead of the ~9 the composed reference
  in :class:`repro.nn.LayerNorm` builds.
* :func:`sgd_update` / :func:`momentum_update` / :func:`nesterov_update`
  — in-place parameter updates writing through preallocated scratch, no
  per-step temporaries.  Bit-identical to the reference optimizer
  arithmetic (only commutative reorderings).

Dispatch
--------
Nothing imports these kernels directly: ``repro.nn.LSTMCell``,
``repro.nn.LSTM``, ``repro.nn.LayerNorm``, ``repro.tensor.cross_entropy``
and the SGD-family optimizers all consult :func:`fused_enabled`.  Fusion
is on by default; with it off they run their reference implementations,
which stay the test oracle.  Flip globally with
``repro.tensor.use_fused``::

    from repro import tensor
    tensor.use_fused(False)      # returns the previous setting
    ...
    with tensor.fused_kernels(False):   # scoped override
        ...

or set ``REPRO_FUSED=0`` in the environment (how the CI reference leg
runs the whole tier-1 suite on the oracle engine), or pass
``--no-fused`` to the CLI.  Checkpoints are path-agnostic — parameter
names, optimizer state keys and values are identical either way — and
the profiler sees the fused ops under the stable names
``fused_lstm_cell`` / ``fused_lstm_layer`` / ``fused_lstm_out`` /
``fused_softmax_xent`` / ``fused_layer_norm``.

Correctness story: :mod:`tests.test_fused_parity` property-checks fused
against reference forward values and gradients (finite differences plus
fused-vs-reference backward), and :mod:`tests.test_golden_run` pins both
paths to a committed 30-step MNIST-LSTM loss/grad-norm trajectory.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from repro.tensor.tensor import REPLAY_VIEW, Tensor, as_tensor

__all__ = [
    "use_fused",
    "fused_enabled",
    "fused_kernels",
    "lstm_cell_step",
    "lstm_layer",
    "softmax_cross_entropy",
    "layer_norm",
    "sgd_update",
    "momentum_update",
    "nesterov_update",
]


def _sigmoid_into(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`repro.tensor.tensor.stable_sigmoid` writing into ``out``.

    Same arithmetic in the same order (so bit-identical to the reference
    sigmoid); ``tmp`` holds ``exp(-|x|)``, so the LSTM loops run their
    gate math without per-call temporaries.  ``tmp`` may be reused across
    calls.
    """
    np.abs(x, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)  # tmp = exp(-|x|)
    num = np.where(x >= 0, 1.0, tmp)
    tmp += 1.0
    np.divide(num, tmp, out=out)
    return out


def _cell_forward(z, c, i, f, g_, o, c_new, tanh_c, h_new, tmp) -> None:
    """Gates and state update from the pre-activations ``z`` (B, 4H).

    Every LSTM kernel runs its step through this one sequence of
    operations, in the reference cell's order, so their forward values
    agree bit for bit.  Writes ``i, f, g_, o, c_new, tanh_c, h_new``;
    ``c_new`` may alias ``c``.
    """
    hs = i.shape[-1]
    _sigmoid_into(z[:, 0 * hs : 1 * hs], i, tmp)
    _sigmoid_into(z[:, 1 * hs : 2 * hs], f, tmp)
    np.tanh(z[:, 2 * hs : 3 * hs], out=g_)
    _sigmoid_into(z[:, 3 * hs : 4 * hs], o, tmp)
    np.multiply(f, c, out=c_new)
    np.multiply(i, g_, out=tmp)
    np.add(c_new, tmp, out=c_new)
    np.tanh(c_new, out=tanh_c)
    np.multiply(o, tanh_c, out=h_new)


def _cell_vjp(dh, gc, i, f, g_, o, tanh_c, c_prev, dc, dz, t1, t2) -> None:
    """The cell VJP's gate gradients, into ``dc`` and ``dz``.

    ``dc = gc + dh * o * (1 - tanh_c^2)``, then the four gate blocks of
    ``dz`` (B, 4H), each product grouped as in the expression form so the
    step cell and the masked layer produce bit-identical gradients.
    ``dc`` may alias ``gc``; ``t1``/``t2`` are scratch.
    """
    hs = i.shape[-1]
    np.multiply(tanh_c, tanh_c, out=t2)
    np.subtract(1.0, t2, out=t2)
    np.multiply(dh, o, out=t1)
    t1 *= t2
    np.add(gc, t1, out=dc)
    # input gate: dc * g * (i * (1 - i))
    np.subtract(1.0, i, out=t2)
    t2 *= i
    np.multiply(dc, g_, out=t1)
    np.multiply(t1, t2, out=dz[:, 0 * hs : 1 * hs])
    # forget gate: dc * c_prev * (f * (1 - f))
    np.subtract(1.0, f, out=t2)
    t2 *= f
    np.multiply(dc, c_prev, out=t1)
    np.multiply(t1, t2, out=dz[:, 1 * hs : 2 * hs])
    # candidate: dc * i * (1 - g^2)
    np.multiply(g_, g_, out=t2)
    np.subtract(1.0, t2, out=t2)
    np.multiply(dc, i, out=t1)
    np.multiply(t1, t2, out=dz[:, 2 * hs : 3 * hs])
    # output gate: (dh * tanh_c) * (o * (1 - o))
    np.subtract(1.0, o, out=t2)
    t2 *= o
    np.multiply(dh, tanh_c, out=t1)
    np.multiply(t1, t2, out=dz[:, 3 * hs : 4 * hs])


# --------------------------------------------------------------------------
# the global switch
# --------------------------------------------------------------------------

# on unless REPRO_FUSED says otherwise: the reference engine is the
# test oracle, selected with REPRO_FUSED=0 / --no-fused
_FUSED_ENABLED = os.environ.get("REPRO_FUSED", "").strip().lower() not in (
    "0",
    "false",
    "no",
)


def use_fused(enabled: bool = True) -> bool:
    """Globally enable/disable fused kernels; returns the previous setting.

    The returned flag makes save/restore one-liners::

        prev = use_fused(True)
        try: ...
        finally: use_fused(prev)
    """
    global _FUSED_ENABLED
    prev = _FUSED_ENABLED
    _FUSED_ENABLED = bool(enabled)
    return prev


def fused_enabled() -> bool:
    """Whether dispatching call sites should take the fused path."""
    return _FUSED_ENABLED


@contextlib.contextmanager
def fused_kernels(enabled: bool = True):
    """Context manager scoping :func:`use_fused` to a block."""
    prev = use_fused(enabled)
    try:
        yield
    finally:
        use_fused(prev)


# --------------------------------------------------------------------------
# LSTM cell step
# --------------------------------------------------------------------------


def lstm_cell_step(
    x: Tensor,
    h: Tensor,
    c: Tensor,
    kernel: Tensor,
    bias: Tensor,
    hidden_size: int,
) -> tuple[Tensor, Tensor]:
    """One fused LSTM cell step; returns ``(h_new, c_new)``.

    Gate order along the kernel's output dimension is ``i, f, g, o``,
    matching :class:`repro.nn.LSTMCell`.  The two outputs are thin slice
    views of one packed ``(2, B, H)`` graph node, so the whole step costs
    three graph nodes and the backward runs as a single pass: upstream
    ``dh`` and ``dc`` arrive together and one matmul against the kernel
    recovers ``dx``/``dh_prev`` jointly.
    """
    x, h, c = as_tensor(x), as_tensor(h), as_tensor(c)
    kernel, bias = as_tensor(kernel), as_tensor(bias)
    hs = int(hidden_size)
    in_size = x.shape[1]

    batch = x.shape[0]
    xh = np.empty((batch, in_size + h.shape[1]))
    z = np.empty((batch, 4 * hs))
    i = np.empty((batch, hs))
    f = np.empty((batch, hs))
    g_ = np.empty((batch, hs))
    o = np.empty((batch, hs))
    tmp = np.empty((batch, hs))
    c_new = np.empty((batch, hs))
    tanh_c = np.empty((batch, hs))
    packed = np.empty((2, batch, hs))
    c_prev = c.data

    def _forward():
        # same arithmetic in the same order as the original expression
        # form, routed through the preallocated buffers so a compiled
        # replay re-runs it bit-identically in place
        xh[:, :in_size] = x.data
        xh[:, in_size:] = h.data
        np.matmul(xh, kernel.data, out=z)
        np.add(z, bias.data, out=z)
        _cell_forward(z, c.data, i, f, g_, o, c_new, tanh_c, packed[0], tmp)
        packed[1] = c_new

    _forward()

    def vjp(gpack: np.ndarray):
        dc = np.empty((batch, hs))
        dz = np.empty((batch, 4 * hs))
        _cell_vjp(gpack[0], gpack[1], i, f, g_, o, tanh_c, c_prev, dc, dz,
                  np.empty((batch, hs)), np.empty((batch, hs)))
        dxh = dz @ kernel.data.T
        dkernel = xh.T @ dz
        dbias = dz.sum(axis=0)
        dc_prev = dc * f
        return (
            dxh[:, :in_size],
            dxh[:, in_size:],
            dc_prev,
            dkernel,
            dbias,
        )

    out = Tensor._make(
        packed, (x, h, c, kernel, bias), vjp, "fused_lstm_cell", replay=_forward
    )
    return _packed_slice(out, 0), _packed_slice(out, 1)


def _packed_slice(packed: Tensor, index: int) -> Tensor:
    """Slice ``packed[index]`` out of a stacked fused output.

    The backward writes the upstream gradient into its slot of a fresh
    zero buffer (plain assignment — each slice is a distinct node, so no
    scatter-add is needed; accumulation across slices happens upstream in
    ``Tensor.backward``'s pending table).
    """

    def vjp(g: np.ndarray):
        gp = np.zeros(packed.shape)
        gp[index] = g
        return (gp,)

    return Tensor._make(
        packed.data[index], (packed,), vjp, "fused_lstm_out", replay=REPLAY_VIEW
    )


def _packed_range(packed: Tensor, stop: int) -> Tensor:
    """Slice ``packed[:stop]`` out of a stacked fused output (see above)."""

    def vjp(g: np.ndarray):
        gp = np.zeros(packed.shape)
        gp[:stop] = g
        return (gp,)

    return Tensor._make(
        packed.data[:stop], (packed,), vjp, "fused_lstm_out", replay=REPLAY_VIEW
    )


# --------------------------------------------------------------------------
# LSTM layer (whole time loop in one node)
# --------------------------------------------------------------------------


def lstm_layer(
    x: Tensor,
    h0: Tensor,
    c0: Tensor,
    kernel: Tensor,
    bias: Tensor,
    hidden_size: int,
    reverse: bool = False,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """One LSTM direction over a full ``(T, B, D)`` sequence in one node.

    Returns ``(outputs, h_final, c_final)`` where ``outputs`` is the
    ``(T, B, H)`` hidden-state sequence (time order preserved even when
    ``reverse=True``).

    ``mask`` is an optional ``(T, B)`` 0/1 array for ragged batches; see
    :func:`_masked_lstm_layer` for its semantics and parity contract.

    This is the cuDNN-style amortisation of the cell step: the input
    projection ``x @ Wx`` runs as a single batched matmul over all
    timesteps (with the bias folded in), so the Python-level time loop
    only performs the small recurrent ``h @ Wh`` matmul plus the gate
    nonlinearities per step.  The backward mirrors it — the sequential
    part carries ``dh``/``dc`` through the loop, then ``dx``, ``dWx``,
    ``dWh`` and ``dbias`` each batch into one large matmul over the
    stacked per-step gate gradients.  The whole direction costs 4 graph
    nodes (packed output plus three slices) instead of ~14·T, and no
    ``np.add.at`` scatter ever runs.

    Unlike :func:`lstm_cell_step` (bit-identical to the reference cell),
    summing ``x @ Wx + h @ Wh`` as two matmuls reorders the reduction
    relative to the reference's single concatenated matmul, so forward
    values agree with the reference stack only to floating-point
    round-off (~1e-15 relative); the parity suite pins the tolerance.
    """
    x, h0, c0 = as_tensor(x), as_tensor(h0), as_tensor(c0)
    kernel, bias = as_tensor(kernel), as_tensor(bias)
    hs = int(hidden_size)
    if mask is not None:
        return _masked_lstm_layer(x, h0, c0, kernel, bias, hs, reverse, mask)
    seq_len, batch, in_size = x.shape
    w_x = kernel.data[:in_size]
    w_h = kernel.data[in_size:]

    x_flat = x.data.reshape(seq_len * batch, in_size)
    x_shared = np.shares_memory(x_flat, x.data)
    z_all = np.empty((seq_len * batch, 4 * hs))
    z_steps = z_all.reshape(seq_len, batch, 4 * hs)

    h_prev = np.empty((seq_len, batch, hs))
    c_prev = np.empty((seq_len, batch, hs))
    gate_i = np.empty((seq_len, batch, hs))
    gate_f = np.empty((seq_len, batch, hs))
    gate_g = np.empty((seq_len, batch, hs))
    gate_o = np.empty((seq_len, batch, hs))
    tanh_c = np.empty((seq_len, batch, hs))
    packed = np.empty((seq_len + 2, batch, hs))

    # The time loops below run entirely through preallocated scratch —
    # in-place ufuncs, no per-step temporaries — because at (B, H) =
    # (256, 128) allocator churn costs as much as the arithmetic.
    order = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
    rec = np.empty((batch, 4 * hs))
    tmp = np.empty((batch, hs))
    c_buf = np.empty((batch, hs))

    def _forward():
        if not x_shared:  # non-contiguous input: re-flatten into our copy
            np.copyto(x_flat, x.data.reshape(seq_len * batch, in_size))
        np.matmul(x_flat, w_x, out=z_all)
        np.add(z_all, bias.data, out=z_all)
        h, c = h0.data, c0.data
        for t in order:
            h_prev[t] = h
            c_prev[t] = c
            z = z_steps[t]
            np.matmul(h, w_h, out=rec)
            z += rec
            _cell_forward(z, c, gate_i[t], gate_f[t], gate_g[t], gate_o[t],
                          c_buf, tanh_c[t], packed[t], tmp)
            h, c = packed[t], c_buf
        packed[seq_len] = h
        packed[seq_len + 1] = c

    _forward()

    # Backward scratch is allocated lazily on the first backward call and
    # then reused: the vjp runs at most once per backward pass, and
    # ``Tensor.backward`` copies leaf gradients out of what vjps return,
    # so reusing these buffers across steps is observationally identical.
    bwd: dict[str, np.ndarray] = {}

    def vjp(gpack: np.ndarray):
        if not bwd:
            bwd["dz_all"] = np.empty((seq_len, batch, 4 * hs))
            bwd["dh"] = np.empty((batch, hs))
            bwd["dc"] = np.empty((batch, hs))
            bwd["t1"] = np.empty((batch, hs))
            bwd["gh"] = np.empty((batch, hs))
            bwd["gc"] = np.empty((batch, hs))
            bwd["dx"] = np.empty((seq_len * batch, in_size))
            bwd["dkernel"] = np.empty_like(kernel.data)
            bwd["dbias"] = np.empty(4 * hs)
        dz_all = bwd["dz_all"]
        dh, dc, t1 = bwd["dh"], bwd["dc"], bwd["t1"]
        gh_buf, gc_buf = bwd["gh"], bwd["gc"]
        g_out = gpack[:seq_len]
        gh = gpack[seq_len].copy()
        gc = gpack[seq_len + 1].copy()
        for t in reversed(order):
            i, f, g_, o = gate_i[t], gate_f[t], gate_g[t], gate_o[t]
            tc = tanh_c[t]
            np.add(g_out[t], gh, out=dh)
            dz = dz_all[t]
            # dc = gc + dh * o * (1 - tc^2)
            np.multiply(tc, tc, out=t1)
            np.subtract(1.0, t1, out=t1)
            t1 *= o
            t1 *= dh
            np.add(gc, t1, out=dc)
            # output gate: dh * tc * o * (1 - o)
            np.subtract(1.0, o, out=t1)
            t1 *= o
            t1 *= tc
            t1 *= dh
            dz[:, 3 * hs : 4 * hs] = t1
            # input gate: dc * g * i * (1 - i)
            np.subtract(1.0, i, out=t1)
            t1 *= i
            t1 *= g_
            t1 *= dc
            dz[:, 0 * hs : 1 * hs] = t1
            # forget gate: dc * c_prev * f * (1 - f)
            np.subtract(1.0, f, out=t1)
            t1 *= f
            t1 *= c_prev[t]
            t1 *= dc
            dz[:, 1 * hs : 2 * hs] = t1
            # candidate: dc * i * (1 - g^2)
            np.multiply(g_, g_, out=t1)
            np.subtract(1.0, t1, out=t1)
            t1 *= i
            t1 *= dc
            dz[:, 2 * hs : 3 * hs] = t1
            gh = np.matmul(dz, w_h.T, out=gh_buf)
            gc = np.multiply(dc, f, out=gc_buf)
        dz_flat = dz_all.reshape(seq_len * batch, 4 * hs)
        np.matmul(dz_flat, w_x.T, out=bwd["dx"])
        dx = bwd["dx"].reshape(x.shape)
        dkernel = bwd["dkernel"]
        np.matmul(x_flat.T, dz_flat, out=dkernel[:in_size])
        np.matmul(h_prev.reshape(seq_len * batch, hs).T, dz_flat,
                  out=dkernel[in_size:])
        dbias = dz_flat.sum(axis=0, out=bwd["dbias"])
        return (dx, gh, gc, dkernel, dbias)

    out = Tensor._make(
        packed, (x, h0, c0, kernel, bias), vjp, "fused_lstm_layer",
        replay=_forward,
    )
    return (
        _packed_range(out, seq_len),
        _packed_slice(out, seq_len),
        _packed_slice(out, seq_len + 1),
    )


def _masked_lstm_layer(
    x: Tensor,
    h0: Tensor,
    c0: Tensor,
    kernel: Tensor,
    bias: Tensor,
    hs: int,
    reverse: bool,
    mask: np.ndarray,
) -> tuple[Tensor, Tensor, Tensor]:
    """:func:`lstm_layer` over a ragged batch, with dynamic-RNN semantics.

    At a step where ``mask[t, b] == 0`` row ``b``'s state carries through
    unchanged and its output is zero, in either direction.  Each step is
    the :func:`lstm_cell_step` arithmetic — one ``concat([x_t, h]) @
    kernel + bias`` matmul, not the unmasked kernel's split projection —
    followed by the per-step loop's ``h_new * m + h_old * (1 - m)``
    freeze, so forward values are bit-identical to ``LSTM``'s per-step
    masked loop.  The backward repeats the cell VJP per step and sums the
    ``dkernel``/``dbias`` contributions in the order ``Tensor.backward``
    accumulates them across the loop's cell nodes, so gradients match the
    loop bit for bit as well.

    The mask is computed outside the graph from the batch, so this node
    carries no replay: a compiled capture containing it runs eagerly.
    """
    seq_len, batch, in_size = x.shape
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (seq_len, batch):
        raise ValueError(f"mask shape {mask.shape} != (T, B) = {(seq_len, batch)}")
    keep = mask.reshape(seq_len, batch, 1)
    drop = 1.0 - keep  # the loop's (1.0 - m) per step, all at once
    k_data, b_data = kernel.data, bias.data
    order = range(seq_len - 1, -1, -1) if reverse else range(seq_len)

    xh_all = np.empty((seq_len, batch, in_size + hs))
    c_prev = np.empty((seq_len, batch, hs))
    gate_i = np.empty((seq_len, batch, hs))
    gate_f = np.empty((seq_len, batch, hs))
    gate_g = np.empty((seq_len, batch, hs))
    gate_o = np.empty((seq_len, batch, hs))
    tanh_c = np.empty((seq_len, batch, hs))
    packed = np.empty((seq_len + 2, batch, hs))
    z = np.empty((batch, 4 * hs))
    tmp = np.empty((batch, hs))
    h_new = np.empty((batch, hs))
    c_new = np.empty((batch, hs))
    h_buf = np.empty((batch, hs))
    c_buf = np.empty((batch, hs))

    h, c = h0.data, c0.data
    for t in order:
        xh = xh_all[t]
        xh[:, :in_size] = x.data[t]
        xh[:, in_size:] = h
        c_prev[t] = c
        np.matmul(xh, k_data, out=z)
        np.add(z, b_data, out=z)
        _cell_forward(z, c, gate_i[t], gate_f[t], gate_g[t], gate_o[t],
                      c_new, tanh_c[t], h_new, tmp)
        m, d = keep[t], drop[t]
        # output h_new * m doubles as the first term of the frozen state
        np.multiply(h_new, m, out=packed[t])
        np.multiply(h, d, out=tmp)  # h may alias h_buf: read before write
        h = np.add(packed[t], tmp, out=h_buf)
        np.multiply(c_new, m, out=c_new)
        np.multiply(c, d, out=tmp)
        c = np.add(c_new, tmp, out=c_buf)
    packed[seq_len] = h
    packed[seq_len + 1] = c

    def vjp(gpack: np.ndarray):
        gh = gpack[seq_len].copy()
        gc = gpack[seq_len + 1].copy()
        dh = np.empty((batch, hs))
        dc = np.empty((batch, hs))
        t1 = np.empty((batch, hs))
        t2 = np.empty((batch, hs))
        dz = np.empty((batch, 4 * hs))
        dxh = np.empty((batch, in_size + hs))
        dk_t = np.empty_like(k_data)
        db_t = np.empty(4 * hs)
        dx = np.empty(x.shape)  # every step writes its slice
        dkernel = dbias = None
        for t in reversed(order):
            m, d = keep[t], drop[t]
            # through the freeze: dh_new = gh*m + g_out*m, dc_new = gc*m
            np.multiply(gh, m, out=dh)
            np.multiply(gpack[t], m, out=t1)
            dh += t1
            np.multiply(gc, m, out=dc)
            _cell_vjp(dh, dc, gate_i[t], gate_f[t], gate_g[t], gate_o[t],
                      tanh_c[t], c_prev[t], dc, dz, t1, t2)
            np.matmul(dz, k_data.T, out=dxh)
            np.matmul(xh_all[t].T, dz, out=dk_t)
            dz.sum(axis=0, out=db_t)
            if dkernel is None:
                dkernel, dbias = dk_t.copy(), db_t.copy()
            else:
                dkernel += dk_t
                dbias += db_t
            dx[t] = dxh[:, :in_size]
            # into the previous state: the freeze's pass-through plus the
            # cell's dh_prev / dc_prev
            np.multiply(gh, d, out=gh)
            gh += dxh[:, in_size:]
            np.multiply(gc, d, out=gc)
            np.multiply(dc, gate_f[t], out=t1)
            gc += t1
        return (dx, gh, gc, dkernel, dbias)

    out = Tensor._make(
        packed, (x, h0, c0, kernel, bias), vjp, "fused_lstm_layer"
    )
    return (
        _packed_range(out, seq_len),
        _packed_slice(out, seq_len),
        _packed_slice(out, seq_len + 1),
    )


# --------------------------------------------------------------------------
# softmax cross-entropy
# --------------------------------------------------------------------------


def softmax_cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    mask: np.ndarray | None = None,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Fused mean softmax cross-entropy (drop-in for
    :func:`repro.tensor.cross_entropy`).

    Two wins over the reference node: the forward never materialises the
    full log-probability matrix (it gathers the target logits and
    subtracts the log-sum-exp directly), and the backward builds the
    ``softmax - target_dist`` gradient in place on one freshly-allocated
    probability buffer instead of a dense one-hot distribution plus
    scaling temporaries.  Probabilities are only exponentiated when the
    backward actually runs, so evaluation passes skip that work entirely.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    num_classes = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)
    if flat_targets.shape[0] != flat_logits.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits "
            f"{logits.shape}"
        )
    if np.any(flat_targets < 0) or np.any(flat_targets >= num_classes):
        raise ValueError("target indices out of range")

    if mask is None:
        flat_mask = np.ones(flat_targets.shape[0], dtype=np.float64)
    else:
        flat_mask = np.asarray(mask, dtype=np.float64).reshape(-1)
        if flat_mask.shape[0] != flat_targets.shape[0]:
            raise ValueError("mask shape must match targets shape")
    denom = flat_mask.sum()
    if denom <= 0:
        raise ValueError("cross_entropy mask excludes every position")

    m = flat_logits.max(axis=1, keepdims=True)
    shifted = flat_logits - m
    lse = (m + np.log(np.exp(shifted).sum(axis=1, keepdims=True))).ravel()
    rows = np.arange(flat_targets.shape[0])
    eps = float(label_smoothing)
    per_pos = lse - flat_logits[rows, flat_targets]
    if eps != 0.0:
        per_pos = (1.0 - eps) * per_pos + eps * (lse - flat_logits.mean(axis=1))
    state = {"denom": denom}
    loss = float((per_pos * flat_mask).sum() / denom)
    out_arr = np.asarray(loss)

    # persistent probability buffer: the LM-vocab-sized exp() result is
    # the big backward allocation; backward() copies leaf grads out, so
    # reusing it across replayed steps is observationally identical
    bwd: dict[str, np.ndarray] = {}

    def vjp(g: np.ndarray):
        # grad = (softmax(logits) - target_dist) * g * mask / denom,
        # built in place on the exponentiated probability buffer
        grad = bwd.get("grad")
        if grad is None:
            grad = bwd["grad"] = np.empty_like(flat_logits)
        np.subtract(flat_logits, lse[:, None], out=grad)
        np.exp(grad, out=grad)
        scale = (float(g) / state["denom"]) * flat_mask
        grad *= scale[:, None]
        if eps != 0.0:
            grad -= (eps / num_classes) * scale[:, None]
        grad[rows, flat_targets] -= (1.0 - eps) * scale
        return (grad.reshape(logits.shape),)

    logits_shared = np.shares_memory(flat_logits, logits.data)
    targets_shared = np.shares_memory(flat_targets, targets)
    mask_shared = mask is None or np.shares_memory(flat_mask, np.asarray(mask))

    def replay():
        if not logits_shared:
            np.copyto(flat_logits, logits.data.reshape(-1, num_classes))
        if not targets_shared:
            np.copyto(flat_targets, targets.reshape(-1))
        if np.any(flat_targets < 0) or np.any(flat_targets >= num_classes):
            raise ValueError("target indices out of range")
        if not mask_shared:
            np.copyto(flat_mask, np.asarray(mask, dtype=np.float64).reshape(-1))
        state["denom"] = flat_mask.sum()
        if state["denom"] <= 0:
            raise ValueError("cross_entropy mask excludes every position")
        m2 = flat_logits.max(axis=1, keepdims=True)
        np.copyto(
            lse,
            (m2 + np.log(np.exp(flat_logits - m2).sum(axis=1, keepdims=True)))
            .ravel(),
        )
        pp = lse - flat_logits[rows, flat_targets]
        if eps != 0.0:
            pp = (1.0 - eps) * pp + eps * (lse - flat_logits.mean(axis=1))
        out_arr[...] = float((pp * flat_mask).sum() / state["denom"])

    return Tensor._make(
        out_arr, (logits,), vjp, "fused_softmax_xent", replay=replay
    )


# --------------------------------------------------------------------------
# layer normalisation
# --------------------------------------------------------------------------


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused LayerNorm over the trailing axis with the standard VJP.

    ``dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std`` —
    the textbook derivation, one node instead of the ~9 the composed
    reference builds, and no finite-difference-hostile recomputation: the
    normalised activations and inverse std are cached from the forward.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out = xhat * gain.data + bias.data

    def replay():
        np.copyto(mu, x.data.mean(axis=-1, keepdims=True))
        np.subtract(x.data, mu, out=xc)
        np.copyto(var, np.mean(xc * xc, axis=-1, keepdims=True))
        np.copyto(inv_std, 1.0 / np.sqrt(var + eps))
        np.multiply(xc, inv_std, out=xhat)
        np.multiply(xhat, gain.data, out=out)
        np.add(out, bias.data, out=out)

    def vjp(g: np.ndarray):
        dxhat = g * gain.data
        mean1 = dxhat.mean(axis=-1, keepdims=True)
        mean2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = (dxhat - mean1 - xhat * mean2) * inv_std
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        return (dx, dgain, dbias)

    return Tensor._make(
        out, (x, gain, bias), vjp, "fused_layer_norm", replay=replay
    )


# --------------------------------------------------------------------------
# fused parameter updates (SGD family)
# --------------------------------------------------------------------------
#
# Each update writes the parameter in place through a caller-provided
# scratch buffer, so a step allocates nothing.  The arithmetic only
# reorders commutative additions relative to the reference optimizers, so
# parameter and momentum state trajectories are bit-identical — the
# parity suite asserts exact equality.


def _decayed_grad(
    p: np.ndarray, grad: np.ndarray, weight_decay: float, scratch: np.ndarray
) -> np.ndarray:
    """``grad + weight_decay * p`` into ``scratch`` (or ``grad`` when wd=0)."""
    if weight_decay == 0.0:
        return grad
    np.multiply(p, weight_decay, out=scratch)
    scratch += grad
    return scratch


def sgd_update(
    p: np.ndarray,
    grad: np.ndarray,
    lr: float,
    weight_decay: float,
    scratch: np.ndarray,
) -> None:
    """In-place ``p -= lr * (grad + wd * p)``."""
    gw = _decayed_grad(p, grad, weight_decay, scratch)
    np.multiply(gw, lr, out=scratch)
    np.subtract(p, scratch, out=p)


def momentum_update(
    p: np.ndarray,
    grad: np.ndarray,
    v: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
    scratch: np.ndarray,
) -> None:
    """In-place heavy-ball step: ``v <- m*v + g; p -= lr * v``."""
    gw = _decayed_grad(p, grad, weight_decay, scratch)
    np.multiply(v, momentum, out=v)
    v += gw
    np.multiply(v, lr, out=scratch)
    np.subtract(p, scratch, out=p)


def nesterov_update(
    p: np.ndarray,
    grad: np.ndarray,
    v: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
    scratch: np.ndarray,
    scratch2: np.ndarray,
) -> None:
    """In-place Nesterov step: ``v <- m*v + g; p -= lr * (g + m*v)``."""
    gw = _decayed_grad(p, grad, weight_decay, scratch)
    np.multiply(v, momentum, out=v)
    v += gw
    np.multiply(v, momentum, out=scratch2)
    scratch2 += gw
    np.multiply(scratch2, lr, out=scratch2)
    np.subtract(p, scratch2, out=p)
