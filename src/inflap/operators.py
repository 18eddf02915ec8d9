"""The second-order differential operators applied to a MapJet.

The full operator splits into a tangential part Du ⊗ Du : D²u and a normal
part |Du|² [Du]^perp Δu, where [Du]^perp projects onto the orthogonal
complement of the range of the jacobian.  The two parts are mutually
perpendicular, which the tests exercise on random jets.  Every operator
takes a MapJet with any leading batch shape and gives one result per point,
through ``...`` einsums and stacked products that give each point the bits
it gets on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OperatorValue",
    "grad_norm_sq",
    "tangential",
    "orthogonal_projection",
    "normal",
    "infinity_laplacian",
    "perturbed_scalar",
    "row_norm",
    "RANK_TOL",
]

#: relative cutoff below which a singular value of the jacobian counts as zero
RANK_TOL = 1e-10


@dataclass
class OperatorValue:
    """All operator pieces at one point; full = tangential + normal."""

    tangential: np.ndarray
    normal: np.ndarray
    full: np.ndarray
    grad_norm_sq: float | np.ndarray
    singular_values: tuple


def row_norm(v) -> np.ndarray:
    """Euclidean norm over the last axis, bit-equal to np.linalg.norm of each row."""
    return np.sqrt(np.vecdot(v, v))


def grad_norm_sq(m):
    """Squared Frobenius norm of the jacobian, |Du|² = Du : Du."""
    j = m.jacobian
    return np.einsum("...ai,...ai->...", j, j)


def tangential(m) -> np.ndarray:
    """Component a of Du ⊗ Du : D²u, i.e. sum over i, j, b of
    D_i u_a D_j u_b D²_ij u_b."""
    return np.einsum("...ai,...bj,...bij->...a", m.jacobian, m.jacobian, m.hessian)


def orthogonal_projection(jacobian: np.ndarray) -> np.ndarray:
    """Projection onto the orthogonal complement of the jacobian's range.

    Left singular vectors with sigma > RANK_TOL * sigma_max span the range;
    P = I - sum of their outer products.  A zero jacobian projects onto
    everything (P = I).  P is symmetrized so P = P^T holds exactly.
    Stacked jacobians (..., N, n) give stacked projections (..., N, N).
    """
    j = np.asarray(jacobian, dtype=float)
    u, s, _ = np.linalg.svd(j, full_matrices=False)
    top = s[..., :1]
    # the dropped columns are zeroed, not removed, so stacks keep one shape
    keep = u * ((s > RANK_TOL * top) & (top > 0.0))[..., None, :]
    p = np.eye(j.shape[-2]) - keep @ np.swapaxes(keep, -1, -2)
    return 0.5 * (p + np.swapaxes(p, -1, -2))


def normal(m) -> np.ndarray:
    """|Du|² [Du]^perp Δu; identically zero for scalar maps."""
    lap = np.einsum("...bii->...b", m.hessian)
    g = np.asarray(grad_norm_sq(m))[..., None]
    return g * np.matvec(orthogonal_projection(m.jacobian), lap)


def infinity_laplacian(m) -> OperatorValue:
    """Assemble the full operator with its tangential/normal split.

    Singular values of the jacobian are reported so that points near a
    rank transition of the projection stay auditable.
    """
    tang = tangential(m)
    norm_part = normal(m)
    s = np.linalg.svd(np.asarray(m.jacobian, dtype=float), compute_uv=False)
    return OperatorValue(
        tangential=tang,
        normal=norm_part,
        full=tang + norm_part,
        grad_norm_sq=grad_norm_sq(m),
        singular_values=tuple(s.tolist()),
    )


def perturbed_scalar(v, f):
    """Scalar residual Dv ⊗ Dv : D²v + Dv · DF for two scalar jets."""
    if v.N != 1 or f.N != 1:
        raise ValueError("perturbed_scalar needs scalar (N = 1) jets")
    if v.n != f.n:
        raise ValueError(f"source dimension mismatch: {v.n} != {f.n}")
    dv = v.jacobian[..., 0, :]
    dvh = np.vecmat(dv, v.hessian[..., 0, :, :])
    return np.vecdot(dvh, dv) + np.vecdot(dv, f.jacobian[..., 0, :])
