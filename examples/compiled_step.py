#!/usr/bin/env python
"""The engine's three execution paths on one PTB step, side by side.

The same 2-layer PTB LSTM training step runs three ways:

1. **reference** (``--no-fused`` / ``REPRO_FUSED=0``) — one graph node
   per primitive op, rebuilt every step;
2. **fused** (the default engine) — the hand-fused LSTM layer and
   softmax/cross-entropy kernels, still rebuilt every step;
3. **fused + compiled** (``--compile`` / ``REPRO_COMPILE=1``) —
   the fused graph captured once by :class:`repro.compile.CompiledStep`
   and replayed into preallocated buffers after that.

The script prints the per-step time of each path and then proves the
point that makes the comparison meaningful: all three produce the
*bit-identical* loss — the speed knobs never change the arithmetic.

Run:  python examples/compiled_step.py           (~30 s)
"""

from __future__ import annotations

import time

import numpy as np

from repro.compile import CompiledStep
from repro.models import PTBLanguageModel
from repro.optim import SGD
from repro.tensor import fused_kernels

# a narrow cell against a large vocabulary: the regime where the eager
# allocator traffic (logit/softmax buffers scale with the vocab) is a
# first-order cost, which is exactly what replay removes
VOCAB, WIDTH, SEQ, BATCH = 5000, 64, 20, 8
STEPS, ROUNDS = 4, 3


def make_batches():
    rng = np.random.default_rng(0)
    return [
        (
            rng.integers(0, VOCAB, size=(BATCH, SEQ)),
            rng.integers(0, VOCAB, size=(BATCH, SEQ)),
        )
        for _ in range(STEPS)
    ]


def run(fused: bool, compiled: bool):
    """Train STEPS * (ROUNDS + 1) steps; return (best round s/step, losses)."""
    model = PTBLanguageModel(
        VOCAB, np.random.default_rng(1), embed_dim=WIDTH, hidden=WIDTH,
        num_layers=2,
    )
    opt = SGD(model, lr=0.01)
    step = CompiledStep(model.loss) if compiled else model.loss
    batches = make_batches()
    losses: list[float] = []
    best = float("inf")
    with fused_kernels(fused):
        for round_no in range(ROUNDS + 1):
            t0 = time.perf_counter()
            for batch in batches:
                opt.zero_grad()
                loss = step(batch)
                loss.backward()
                opt.step()
                if round_no == 0:  # warm-up round doubles as the parity record
                    losses.append(loss.item())
            if round_no > 0:
                best = min(best, (time.perf_counter() - t0) / len(batches))
    return best, losses


def main() -> None:
    print(
        f"PTB step, vocab {VOCAB}, width {WIDTH}, "
        f"seq {SEQ}, batch {BATCH}, 2 layers\n"
    )
    t_ref, ref_losses = run(fused=False, compiled=False)
    t_fused, fused_losses = run(fused=True, compiled=False)
    t_comp, comp_losses = run(fused=True, compiled=True)

    print(f"  reference        : {t_ref * 1e3:7.2f} ms/step")
    print(
        f"  fused            : {t_fused * 1e3:7.2f} ms/step"
        f"  ({t_ref / t_fused:.2f}x reference)"
    )
    print(
        f"  fused + compiled : {t_comp * 1e3:7.2f} ms/step"
        f"  ({t_fused / t_comp:.2f}x fused, {t_ref / t_comp:.2f}x reference)"
    )

    # the whole point: faster paths, identical numbers
    assert fused_losses == comp_losses, "compiled diverged from fused"
    drift = max(abs(a - b) for a, b in zip(ref_losses, fused_losses))
    print(
        f"\n  first-step losses agree: compiled == fused bitwise, "
        f"reference within {drift:.2e}"
    )


if __name__ == "__main__":
    main()
