"""Hessian spectral analysis by power iteration on Hessian-vector products.

Complements the Section 4 Lipschitz probe: ``L(x, g) = ĝᵀHĝ`` is the
curvature *along the gradient*, bounded above by the top Hessian
eigenvalue ``λ_max``, which classical theory says caps the stable
learning rate at ``2/λ_max``.  Power iteration on finite-difference HVPs
gives ``λ_max`` without ever forming H — the same machinery the
sharpness/flatness literature around large-batch training (Keskar et
al., cited by the paper) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor
from repro.utils.rng import as_generator


def _add_flat(params: Sequence[Tensor], flat: np.ndarray, scale: float) -> None:
    offset = 0
    for p in params:
        size = p.data.size
        p.data += scale * flat[offset : offset + size].reshape(p.data.shape)
        offset += size


def _flat_grad(
    loss_fn: Callable[[object], Tensor], batch, params: Sequence[Tensor]
) -> np.ndarray:
    for p in params:
        p.grad = None
    loss_fn(batch).backward()
    return np.concatenate(
        [
            (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
            for p in params
        ]
    )


def hessian_vector_product(
    loss_fn: Callable[[object], Tensor],
    batch,
    params: Sequence[Tensor],
    vector: np.ndarray,
    eps: float = 1e-3,
) -> np.ndarray:
    """H·v by central differences of the gradient along ``v``.

    The parameters are perturbed in place and restored exactly, so calls
    can interleave with training.
    """
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        return np.zeros_like(vector)
    unit = vector / norm
    _add_flat(params, unit, +eps)
    g_plus = _flat_grad(loss_fn, batch, params)
    _add_flat(params, unit, -2.0 * eps)
    g_minus = _flat_grad(loss_fn, batch, params)
    _add_flat(params, unit, +eps)  # restore
    return (g_plus - g_minus) / (2.0 * eps) * norm


@dataclass
class PowerIterationResult:
    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    converged: bool

    def max_stable_lr(self) -> float:
        """Classical stability bound for plain GD: ``2 / λ_max``."""
        if self.eigenvalue <= 0:
            return float("inf")
        return 2.0 / self.eigenvalue


def top_hessian_eigenvalue(
    loss_fn: Callable[[object], Tensor],
    batch,
    params: Sequence[Tensor],
    rng,
    max_iterations: int = 50,
    tol: float = 1e-4,
    eps: float = 1e-3,
) -> PowerIterationResult:
    """Largest-magnitude Hessian eigenvalue via power iteration on HVPs.

    Convergence is declared when the Rayleigh quotient moves less than
    ``tol`` (relative) between iterations.  On loss surfaces with
    negative curvature directions the returned value is the dominant
    eigenvalue *in magnitude* (standard power-iteration semantics).
    """
    gen = as_generator(rng)
    n = sum(p.data.size for p in params)
    v = gen.standard_normal(n)
    v /= np.linalg.norm(v)
    eigenvalue = 0.0
    for iteration in range(1, max_iterations + 1):
        hv = hessian_vector_product(loss_fn, batch, params, v, eps=eps)
        norm = float(np.linalg.norm(hv))
        if norm == 0.0:
            return PowerIterationResult(0.0, v, iteration, True)
        new_eig = float(v @ hv)
        v = hv / norm
        if iteration > 1 and abs(new_eig - eigenvalue) <= tol * max(
            abs(new_eig), 1e-12
        ):
            return PowerIterationResult(new_eig, v, iteration, True)
        eigenvalue = new_eig
    return PowerIterationResult(eigenvalue, v, max_iterations, False)
