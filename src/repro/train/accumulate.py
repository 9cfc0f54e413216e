"""Gradient accumulation: large logical batches on small memory.

The paper's large-batch experiments assume the hardware can hold the
batch; on memory-limited devices the standard trick is to accumulate
gradients over ``k`` micro-batches before one optimizer step
(``Trainer(..., accum_steps=k)``).  For a *mean* loss the accumulated
average gradient equals the large-batch gradient exactly, so LEGW
schedules tuned for batch ``k·b`` apply unchanged — the test suite pins
down this equivalence against both the single-process large batch and
:class:`~repro.parallel.cluster.SimCluster`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


def accumulate_gradients(
    loss_fn: Callable[[object], "object"],
    micro_batches: Sequence[object],
    params: Sequence["object"],
    weights: Sequence[float] | None = None,
) -> float:
    """Accumulate the weighted-average gradient of several micro-batches.

    ``weights`` defaults to micro-batch sizes being equal; pass explicit
    fractions (summing to 1) for ragged micro-batches.  Gradients land in
    ``param.grad`` exactly as a single large-batch backward would leave
    them; returns the weighted mean loss.
    """
    if not micro_batches:
        raise ValueError("need at least one micro-batch")
    if weights is None:
        weights = [1.0 / len(micro_batches)] * len(micro_batches)
    if len(weights) != len(micro_batches):
        raise ValueError("weights must parallel micro_batches")
    if not math.isclose(sum(weights), 1.0, rel_tol=1e-9):
        raise ValueError("weights must sum to 1")
    for p in params:
        p.grad = None
    total = 0.0
    for batch, w in zip(micro_batches, weights):
        loss = loss_fn(batch)
        # scale the upstream gradient so accumulation averages, not sums
        loss.backward(np.asarray(w))
        total += w * float(loss.data)
    return total
