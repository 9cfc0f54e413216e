"""Parity suite for the fused hot-path kernels (``repro.tensor.fused``).

Every fused kernel is held to the reference implementation three ways:

1. **forward parity** — bit-identical for the cell step, the masked
   (ragged-batch) LSTM layer, the loss, and the optimizer updates;
   round-off-level (the fused layer kernel sums ``x@Wx + h@Wh`` as two
   matmuls) for the unmasked full-sequence LSTM layer;
2. **backward parity** — fused VJPs against the reference graph's
   gradients on identical inputs (bit-identical for the masked layer
   against the per-step loop of fused cells);
3. **gradcheck** — fused VJPs against central finite differences, so the
   two paths cannot be "consistently wrong together".

Shapes, seeds and dtypes are randomized with hypothesis, including the
degenerate ``batch == 1`` / ``seq_len == 1`` cases and non-contiguous
input arrays.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import LSTM, LSTMCell, LayerNorm
from repro.obs import OpProfiler
from repro.optim.sgd import SGD, Momentum, Nesterov
from repro.tensor import (
    Tensor,
    cross_entropy,
    fused_enabled,
    fused_kernels,
    gradcheck,
    stack,
    use_fused,
)
from repro.tensor import fused
from repro.tensor.tensor import stable_sigmoid

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

seeds = st.integers(0, 2**31 - 1)


@pytest.fixture(autouse=True)
def _restore_fused_flag():
    """Tests flip the global switch; always put it back."""
    prev = fused_enabled()
    yield
    use_fused(prev)


def _grads(params):
    return {n: p.grad.copy() for n, p in params.items()}


# ---------------------------------------------------------------------------
# stable sigmoid
# ---------------------------------------------------------------------------


def _two_branch_sigmoid(x):
    """Independent oracle: the two stable branches via boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestStableSigmoid:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.floats(0.1, 800.0), seeds)
    def test_branch_free_forms_match_two_branch_oracle(self, rows, cols, scale, seed):
        x = np.random.default_rng(seed).standard_normal((rows, cols)) * scale
        x[0, 0] = -0.0
        want = _two_branch_sigmoid(x)
        assert np.array_equal(stable_sigmoid(x), want)
        out, tmp = np.empty_like(x), np.empty_like(x)
        assert np.array_equal(fused._sigmoid_into(x, out, tmp), want)

    def test_extremes_and_nan(self):
        x = np.array([-1e308, -745.0, -0.0, 0.0, 745.0, 1e308, np.nan])
        got = stable_sigmoid(x)
        assert np.array_equal(got[:-1], _two_branch_sigmoid(x)[:-1])
        assert np.isnan(got[-1])


# ---------------------------------------------------------------------------
# LSTM cell step
# ---------------------------------------------------------------------------


class TestLSTMCellParity:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(1, 5),
        seeds,
    )
    def test_forward_bit_identical(self, input_size, hidden, batch, seed):
        rng = np.random.default_rng(seed)
        cell = LSTMCell(input_size, hidden, rng=seed)
        x = Tensor(rng.standard_normal((batch, input_size)))
        state = (
            Tensor(rng.standard_normal((batch, hidden))),
            Tensor(rng.standard_normal((batch, hidden))),
        )
        with fused_kernels(False):
            h_ref, (_, c_ref) = cell(x, state)
        with fused_kernels(True):
            h_fus, (_, c_fus) = cell(x, state)
        assert np.array_equal(h_ref.data, h_fus.data)
        assert np.array_equal(c_ref.data, c_fus.data)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), seeds)
    def test_backward_matches_reference(self, input_size, hidden, batch, seed):
        rng = np.random.default_rng(seed)
        cell = LSTMCell(input_size, hidden, rng=seed)
        xd = rng.standard_normal((batch, input_size))
        hd = rng.standard_normal((batch, hidden))
        cd = rng.standard_normal((batch, hidden))

        def run(flag):
            with fused_kernels(flag):
                cell.zero_grad()
                x = Tensor(xd.copy(), requires_grad=True)
                state = (
                    Tensor(hd.copy(), requires_grad=True),
                    Tensor(cd.copy(), requires_grad=True),
                )
                h, (_, c) = cell(x, state)
                ((h * h).sum() + (c * h).sum()).backward()
                return (
                    x.grad.copy(),
                    state[0].grad.copy(),
                    state[1].grad.copy(),
                    _grads(dict(cell.named_parameters())),
                )

        gx_r, gh_r, gc_r, gp_r = run(False)
        gx_f, gh_f, gc_f, gp_f = run(True)
        assert np.allclose(gx_r, gx_f, atol=1e-12)
        assert np.allclose(gh_r, gh_f, atol=1e-12)
        assert np.allclose(gc_r, gc_f, atol=1e-12)
        for name in gp_r:
            assert np.allclose(gp_r[name], gp_f[name], atol=1e-12)

    def test_gradcheck_fused_cell(self, rng):
        B, D, H = 2, 3, 4
        x = Tensor(rng.standard_normal((B, D)), requires_grad=True)
        h = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        c = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        k = Tensor(rng.standard_normal((D + H, 4 * H)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(4 * H) * 0.3, requires_grad=True)

        def fn(x, h, c, k, b):
            hn, cn = fused.lstm_cell_step(x, h, c, k, b, H)
            return (hn * hn).sum() + (hn * cn).sum()

        report = gradcheck(fn, [x, h, c, k, b], atol=1e-7, rtol=1e-5)
        assert report.worst_abs < 1e-7

    def test_non_contiguous_inputs(self, rng):
        B, D, H = 3, 4, 5
        cell = LSTMCell(D, H, rng=0)
        # column-sliced views: non-contiguous, strided input arrays
        x_wide = rng.standard_normal((B, 2 * D))
        h_wide = rng.standard_normal((B, 2 * H))
        x = Tensor(x_wide[:, ::2])
        state = (Tensor(h_wide[:, ::2]), Tensor(h_wide[:, 1::2]))
        assert not x.data.flags["C_CONTIGUOUS"]
        with fused_kernels(False):
            h_ref, (_, c_ref) = cell(x, state)
        with fused_kernels(True):
            h_fus, (_, c_fus) = cell(x, state)
        assert np.array_equal(h_ref.data, h_fus.data)
        assert np.array_equal(c_ref.data, c_fus.data)


# ---------------------------------------------------------------------------
# full-sequence LSTM layer / stack
# ---------------------------------------------------------------------------


class TestLSTMLayerParity:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(1, 4),   # seq_len (includes 1)
        st.integers(1, 3),   # batch (includes 1)
        st.integers(1, 4),   # input size
        st.integers(1, 4),   # hidden
        st.integers(1, 2),   # layers
        st.booleans(),       # bidirectional first layer
        seeds,
    )
    def test_stack_forward_backward(
        self, seq_len, batch, input_size, hidden, layers, bidir, seed
    ):
        rng = np.random.default_rng(seed)
        xd = rng.standard_normal((seq_len, batch, input_size))

        def run(flag):
            with fused_kernels(flag):
                lstm = LSTM(
                    input_size, hidden, layers, rng=seed,
                    bidirectional_first=bidir,
                )
                x = Tensor(xd.copy(), requires_grad=True)
                out, states = lstm(x)
                (out * out).sum().backward()
                return (
                    out.data.copy(),
                    [(h.data.copy(), c.data.copy()) for h, c in states],
                    x.grad.copy(),
                    _grads(dict(lstm.named_parameters())),
                )

        o_r, s_r, gx_r, gp_r = run(False)
        o_f, s_f, gx_f, gp_f = run(True)
        assert np.allclose(o_r, o_f, atol=1e-12)
        for (h_r, c_r), (h_f, c_f) in zip(s_r, s_f):
            assert np.allclose(h_r, h_f, atol=1e-12)
            assert np.allclose(c_r, c_f, atol=1e-12)
        assert np.allclose(gx_r, gx_f, atol=1e-12)
        for name in gp_r:
            assert np.allclose(gp_r[name], gp_f[name], atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradcheck_fused_layer(self, rng, reverse):
        T, B, D, H = 3, 2, 3, 3
        x = Tensor(rng.standard_normal((T, B, D)), requires_grad=True)
        h0 = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        c0 = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        k = Tensor(rng.standard_normal((D + H, 4 * H)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(4 * H) * 0.3, requires_grad=True)

        def fn(x, h0, c0, k, b):
            out, hf, cf = fused.lstm_layer(x, h0, c0, k, b, H, reverse=reverse)
            return (out * out).sum() + (hf * cf).sum()

        report = gradcheck(fn, [x, h0, c0, k, b], atol=1e-7, rtol=1e-5)
        assert report.worst_abs < 1e-7

    def test_layer_leaves_initial_state_untouched(self, rng):
        T, B, D, H = 3, 2, 3, 3
        h0 = Tensor(rng.standard_normal((B, H)))
        c0 = Tensor(rng.standard_normal((B, H)))
        h0d, c0d = h0.data.copy(), c0.data.copy()
        fused.lstm_layer(
            Tensor(rng.standard_normal((T, B, D))),
            h0, c0,
            Tensor(rng.standard_normal((D + H, 4 * H))),
            Tensor(rng.standard_normal(4 * H)),
            H,
        )
        assert np.array_equal(h0.data, h0d)
        assert np.array_equal(c0.data, c0d)

    def test_masked_stack_matches_reference_bitwise(self, rng):
        """Ragged batches run the masked layer kernel, whose forward is
        bit-identical to the reference engine's per-step loop."""
        T, B, D, H = 4, 3, 3, 4
        xd = rng.standard_normal((T, B, D))
        mask = np.ones((T, B))
        mask[2:, 0] = 0.0
        mask[3:, 1] = 0.0

        def run(flag):
            with fused_kernels(flag):
                lstm = LSTM(D, H, 1, rng=7)
                out, states = lstm(Tensor(xd.copy()), mask=mask)
                return out.data.copy(), states[0][0].data.copy()

        o_r, h_r = run(False)
        o_f, h_f = run(True)
        assert np.array_equal(o_r, o_f)
        assert np.array_equal(h_r, h_f)

    def test_dropout_masks_match_between_paths(self):
        """The (T,B,H) fused dropout draw consumes the RNG stream exactly
        like the reference path's T sequential (B,H) draws."""
        T, B, D, H = 3, 2, 3, 4
        xd = np.random.default_rng(5).standard_normal((T, B, D))

        def run(flag):
            with fused_kernels(flag):
                lstm = LSTM(D, H, 2, rng=11, dropout=0.5)
                lstm.train()
                out, _ = lstm(Tensor(xd.copy()))
                return out.data.copy()

        assert np.allclose(run(False), run(True), atol=1e-12)


# ---------------------------------------------------------------------------
# masked (ragged-batch) LSTM layer
# ---------------------------------------------------------------------------


def _loop_direction(cell, x, state, mask, reverse):
    """The per-step masked loop (``LSTM``'s reference algorithm) for one
    direction; the cell runs fused or reference per the global switch."""
    seq_len = x.shape[0]
    order = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
    outputs = [None] * seq_len
    for t in order:
        h_new, (_, c_new) = cell(x[t], state)
        m = mask[t].reshape(-1, 1)
        h_old, c_old = state
        state = (h_new * m + h_old * (1.0 - m), c_new * m + c_old * (1.0 - m))
        outputs[t] = h_new * m
    return stack(outputs, axis=0), state


@st.composite
def ragged_problems(draw):
    """(T, B, D, H, mask, seed): ragged lengths including length-1 rows,
    ``B == 1`` and ``T == 1``, sometimes an arbitrary 0/1 pattern."""
    seq_len = draw(st.integers(1, 6))
    batch = draw(st.integers(1, 4))
    in_size = draw(st.integers(1, 5))
    hidden = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, seq_len), min_size=batch, max_size=batch))
    mask = (np.arange(seq_len)[:, None] < np.array(lengths)[None, :]).astype(float)
    if draw(st.booleans()):
        bits = draw(st.lists(st.booleans(), min_size=seq_len * batch,
                             max_size=seq_len * batch))
        mask = np.array(bits, dtype=float).reshape(seq_len, batch)
    return seq_len, batch, in_size, hidden, mask, draw(seeds)


class TestMaskedLSTMLayer:
    @settings(max_examples=30, deadline=None)
    @given(ragged_problems(), st.booleans(), st.booleans())
    def test_bitwise_equal_to_per_step_loop(self, problem, reverse, strided):
        """Forward values and every gradient equal the per-step loop of
        fused cells bit for bit; the forward also equals the reference
        engine's loop bit for bit."""
        seq_len, batch, in_size, hidden, mask, seed = problem
        rng = np.random.default_rng(seed)
        cell = LSTMCell(in_size, hidden, rng=seed)
        xd = rng.standard_normal((seq_len, batch, 2 * in_size))
        if strided:  # non-contiguous input
            xd = xd[:, :, ::2]
        else:
            xd = np.ascontiguousarray(xd[:, :, :in_size])
        h0d = rng.standard_normal((batch, hidden))
        c0d = rng.standard_normal((batch, hidden))
        w_out = rng.standard_normal((seq_len, batch, hidden))

        def run(kernel, flag):
            cell.zero_grad()
            x = Tensor(xd, requires_grad=True)
            h0 = Tensor(h0d.copy(), requires_grad=True)
            c0 = Tensor(c0d.copy(), requires_grad=True)
            with fused_kernels(flag):
                if kernel:
                    out, h, c = fused.lstm_layer(
                        x, h0, c0, cell.kernel, cell.bias, hidden,
                        reverse=reverse, mask=mask,
                    )
                else:
                    out, (h, c) = _loop_direction(cell, x, (h0, c0), mask, reverse)
                ((out * w_out).sum() + (h * c).sum()).backward()
            return [out.data, h.data, c.data], [
                x.grad, h0.grad, c0.grad, cell.kernel.grad, cell.bias.grad,
            ]

        fwd_k, grads_k = run(True, True)
        fwd_l, grads_l = run(False, True)
        fwd_r, _ = run(False, False)
        for a, b, r in zip(fwd_k, fwd_l, fwd_r):
            assert np.array_equal(a, b)
            assert np.array_equal(a, r)
        for a, b in zip(grads_k, grads_l):
            assert np.array_equal(a, b)

    @settings(max_examples=12, deadline=None)
    @given(ragged_problems(), st.integers(1, 2), st.booleans())
    def test_stack_matches_reference(self, problem, layers, bidir):
        """A masked ``LSTM`` stack: forward bit-identical across engines,
        gradients within the cell VJP's round-off."""
        seq_len, batch, in_size, hidden, mask, seed = problem
        xd = np.random.default_rng(seed).standard_normal((seq_len, batch, in_size))

        def run(flag):
            with fused_kernels(flag):
                lstm = LSTM(in_size, hidden, layers, rng=seed,
                            bidirectional_first=bidir)
                x = Tensor(xd.copy(), requires_grad=True)
                out, states = lstm(x, mask=mask)
                ((out * out).sum() + (states[-1][0] * states[-1][1]).sum()).backward()
                return (
                    out.data.copy(),
                    [(h.data.copy(), c.data.copy()) for h, c in states],
                    x.grad.copy(),
                    _grads(dict(lstm.named_parameters())),
                )

        o_r, s_r, gx_r, gp_r = run(False)
        o_f, s_f, gx_f, gp_f = run(True)
        assert np.array_equal(o_r, o_f)
        for (h_r, c_r), (h_f, c_f) in zip(s_r, s_f):
            assert np.array_equal(h_r, h_f)
            assert np.array_equal(c_r, c_f)
        assert np.allclose(gx_r, gx_f, atol=1e-12)
        for name in gp_r:
            assert np.allclose(gp_r[name], gp_f[name], atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradcheck_masked_layer(self, rng, reverse):
        T, B, D, H = 4, 3, 3, 3
        mask = np.ones((T, B))
        mask[1:, 0] = 0.0  # a length-1 row
        mask[3:, 1] = 0.0
        x = Tensor(rng.standard_normal((T, B, D)), requires_grad=True)
        h0 = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        c0 = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        k = Tensor(rng.standard_normal((D + H, 4 * H)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(4 * H) * 0.3, requires_grad=True)

        def fn(x, h0, c0, k, b):
            out, hf, cf = fused.lstm_layer(
                x, h0, c0, k, b, H, reverse=reverse, mask=mask
            )
            return (out * out).sum() + (hf * cf).sum()

        report = gradcheck(fn, [x, h0, c0, k, b], atol=1e-7, rtol=1e-5)
        assert report.worst_abs < 1e-7

    def test_padded_steps_freeze_state_and_zero_output(self, rng):
        T, B, D, H = 5, 2, 3, 4
        mask = np.ones((T, B))
        mask[2:, 1] = 0.0
        k = Tensor(rng.standard_normal((D + H, 4 * H)) * 0.3)
        b = Tensor(rng.standard_normal(4 * H) * 0.3)
        x = Tensor(rng.standard_normal((T, B, D)))
        zero = Tensor(np.zeros((B, H)))
        out, hf, cf = fused.lstm_layer(x, zero, zero, k, b, H, mask=mask)
        assert np.all(out.data[2:, 1] == 0.0)
        assert np.array_equal(hf.data[1], out.data[1, 1])  # frozen after t=1
        # reverse: row 1's padded tail is seen first and leaves h at zero
        out_r, _, _ = fused.lstm_layer(x, zero, zero, k, b, H, reverse=True, mask=mask)
        short, _, _ = fused.lstm_layer(
            Tensor(x.data[:2, 1:]), Tensor(np.zeros((1, H))),
            Tensor(np.zeros((1, H))), k, b, H, reverse=True,
        )
        assert np.allclose(out_r.data[:2, 1:], short.data, atol=1e-15)

    def test_mask_shape_checked(self, rng):
        x = Tensor(rng.standard_normal((3, 2, 2)))
        z = Tensor(np.zeros((2, 2)))
        k, b = Tensor(np.zeros((4, 8))), Tensor(np.zeros(8))
        with pytest.raises(ValueError, match="mask shape"):
            fused.lstm_layer(x, z, z, k, b, 2, mask=np.ones((2, 3)))

    @pytest.mark.parametrize("bidir", [False, True])
    def test_node_count_independent_of_length(self, bidir):
        """A masked ``LSTM.forward`` builds O(1) nodes per direction per
        layer: the graph does not grow with the sequence length."""

        def nodes(seq_len):
            lstm = LSTM(3, 4, 2, rng=0, bidirectional_first=bidir)
            x = Tensor(np.random.default_rng(1).standard_normal((seq_len, 2, 3)),
                       requires_grad=True)
            mask = np.ones((seq_len, 2))
            mask[seq_len // 2 :, 0] = 0.0
            prof = OpProfiler().attach()
            try:
                with fused_kernels(True):
                    lstm(x, mask=mask)
            finally:
                prof.detach()
            assert prof.forward["fused_lstm_layer"].calls == 2 + bidir
            return prof.graph_nodes

        assert nodes(3) == nodes(12)
        # 4 nodes per direction (packed output + three slices), plus the
        # bidirectional concat
        assert nodes(12) == 4 * (2 + bidir) + bidir


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------


class TestCrossEntropyParity:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 6),    # batch (includes 1)
        st.integers(2, 8),    # classes
        st.sampled_from([0.0, 0.1]),
        st.booleans(),        # with mask
        seeds,
    )
    def test_forward_backward_parity(self, batch, classes, eps, masked, seed):
        rng = np.random.default_rng(seed)
        logits_d = rng.standard_normal((batch, classes)) * 5.0
        targets = rng.integers(0, classes, size=batch)
        mask = None
        if masked:
            mask = rng.integers(0, 2, size=batch).astype(float)
            mask[0] = 1.0  # at least one live position

        def run(flag):
            with fused_kernels(flag):
                logits = Tensor(logits_d.copy(), requires_grad=True)
                loss = cross_entropy(
                    logits, targets, mask=mask, label_smoothing=eps
                )
                loss.backward()
                return float(loss.data), logits.grad.copy()

        l_r, g_r = run(False)
        l_f, g_f = run(True)
        assert np.isclose(l_r, l_f, atol=1e-12)
        assert np.allclose(g_r, g_f, atol=1e-12)

    def test_gradcheck_fused_xent(self, rng):
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        targets = rng.integers(0, 5, size=4)

        def fn(logits):
            return fused.softmax_cross_entropy(
                logits, targets, label_smoothing=0.1
            )

        report = gradcheck(fn, [logits], atol=1e-7, rtol=1e-5)
        assert report.worst_abs < 1e-7

    def test_sequence_shaped_logits(self, rng):
        """(T, B, V) logits with a (T, B) mask — the LM loss shape."""
        T, B, V = 3, 2, 6
        logits_d = rng.standard_normal((T, B, V))
        targets = rng.integers(0, V, size=(T, B))
        mask = np.ones((T, B))
        mask[-1, 0] = 0.0

        def run(flag):
            with fused_kernels(flag):
                logits = Tensor(logits_d.copy(), requires_grad=True)
                cross_entropy(logits, targets, mask=mask).backward()
                return logits.grad.copy()

        assert np.allclose(run(False), run(True), atol=1e-12)


# ---------------------------------------------------------------------------
# LayerNorm
# ---------------------------------------------------------------------------


class TestLayerNormParity:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 8), seeds)
    def test_forward_backward_parity(self, batch, dim, seed):
        rng = np.random.default_rng(seed)
        xd = rng.standard_normal((batch, dim)) * 3.0
        ln = LayerNorm(dim)
        ln.gain.data[:] = rng.standard_normal(dim)
        ln.bias.data[:] = rng.standard_normal(dim)

        def run(flag):
            with fused_kernels(flag):
                ln.zero_grad()
                x = Tensor(xd.copy(), requires_grad=True)
                (ln(x) ** 2).sum().backward()
                return (
                    x.grad.copy(),
                    ln.gain.grad.copy(),
                    ln.bias.grad.copy(),
                )

        gx_r, gg_r, gb_r = run(False)
        gx_f, gg_f, gb_f = run(True)
        assert np.allclose(gx_r, gx_f, atol=1e-10)
        assert np.allclose(gg_r, gg_f, atol=1e-10)
        assert np.allclose(gb_r, gb_f, atol=1e-10)

    def test_gradcheck_fused_layer_norm(self, rng):
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        gain = Tensor(rng.standard_normal(6), requires_grad=True)
        bias = Tensor(rng.standard_normal(6), requires_grad=True)

        def fn(x, gain, bias):
            return (fused.layer_norm(x, gain, bias) ** 2).sum()

        report = gradcheck(fn, [x, gain, bias], atol=1e-6, rtol=1e-4)
        assert report.worst_rel < 1e-4

    def test_non_contiguous_input(self, rng):
        ln = LayerNorm(4)
        wide = rng.standard_normal((3, 8))
        x = Tensor(wide[:, ::2])
        assert not x.data.flags["C_CONTIGUOUS"]
        with fused_kernels(False):
            ref = ln(x).data.copy()
        with fused_kernels(True):
            fus = ln(x).data.copy()
        assert np.allclose(ref, fus, atol=1e-12)


# ---------------------------------------------------------------------------
# optimizer updates — bit-identical trajectories
# ---------------------------------------------------------------------------


class TestOptimizerParity:
    @pytest.mark.parametrize("cls", [SGD, Momentum, Nesterov])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_trajectories_bit_identical(self, cls, weight_decay):
        rng = np.random.default_rng(42)
        p0 = rng.standard_normal((4, 3))
        grads = [rng.standard_normal((4, 3)) for _ in range(6)]

        def run(flag):
            with fused_kernels(flag):
                p = Tensor(p0.copy(), requires_grad=True)
                opt = cls([("w", p)], lr=0.1, weight_decay=weight_decay)
                for g in grads:
                    p.grad = g.copy()
                    opt.step()
                return p.data.copy(), {
                    k: {kk: vv.copy() for kk, vv in v.items()}
                    for k, v in opt.state.items()
                }

        p_ref, st_ref = run(False)
        p_fus, st_fus = run(True)
        assert np.array_equal(p_ref, p_fus)
        assert set(st_ref) == set(st_fus)
        for name in st_ref:
            for key in st_ref[name]:
                assert np.array_equal(st_ref[name][key], st_fus[name][key])

    def test_scratch_not_in_checkpointed_state(self):
        with fused_kernels(True):
            p = Tensor(np.ones((2, 2)), requires_grad=True)
            opt = Momentum([("w", p)], lr=0.1)
            p.grad = np.ones((2, 2))
            opt.step()
            assert opt._scratch  # fused path allocated scratch...
            for st in opt.state.values():  # ...but state stays clean
                assert set(st) == {"v"}


# ---------------------------------------------------------------------------
# dispatch plumbing
# ---------------------------------------------------------------------------


def _run_src(args, env_fused):
    """Run ``python args`` in a fresh interpreter with ``REPRO_FUSED``
    set to ``env_fused`` (``None`` leaves it unset)."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FUSED"}
    env["PYTHONPATH"] = str(SRC)
    if env_fused is not None:
        env["REPRO_FUSED"] = env_fused
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120, cwd=SRC.parent,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestDispatch:
    @pytest.mark.parametrize(
        "env_fused, expected",
        [(None, "True"), ("", "True"), ("1", "True"), ("0", "False"),
         ("false", "False")],
    )
    def test_environment_default(self, env_fused, expected):
        """Unset ``REPRO_FUSED`` means fused; ``REPRO_FUSED=0`` selects
        the reference engine."""
        code = "from repro.tensor import fused_enabled; print(fused_enabled())"
        assert _run_src(["-c", code], env_fused).strip() == expected

    def test_cli_no_fused_runs_reference_engine(self):
        train = ["-m", "repro", "train", "mnist", "--preset", "smoke",
                 "--epochs", "1", "--profile"]
        default = _run_src(train, None)
        assert "fused_lstm_layer" in default
        reference = _run_src(train + ["--no-fused"], None)
        assert "fused_" not in reference
        assert "sigmoid" in reference

    def test_context_manager_restores_flag(self):
        before = fused_enabled()
        with fused_kernels(not before):
            assert fused_enabled() is (not before)
        assert fused_enabled() is before

    def test_use_fused_returns_previous(self):
        prev = use_fused(True)
        assert use_fused(prev) is True

    def test_fused_graph_is_smaller(self, rng):
        lstm = LSTM(4, 5, 1, rng=0)
        x = Tensor(rng.standard_normal((6, 2, 4)))

        def count_nodes(flag):
            with fused_kernels(flag):
                out, _ = lstm(x)
                seen, stack_ = set(), [(out * out).sum()]
                while stack_:
                    t = stack_.pop()
                    if id(t) in seen:
                        continue
                    seen.add(id(t))
                    stack_.extend(t._parents)
                return len(seen)

        assert count_nodes(True) < count_nodes(False) / 3
