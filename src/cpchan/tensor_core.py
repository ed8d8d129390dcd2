"""Dense complex third-order tensors and the multilinear ops used everywhere else.

Conventions (fixed; all identities in the test suite are checked against them):

* A tensor is stored as a numpy array of shape (I1, I2, I3), complex128.
* Modes are 1-based (mode in {1, 2, 3}).
* ``unfold(X, n)`` arranges the mode-n fibers as columns, with the remaining
  modes ordered so that *earlier* modes vary fastest (Fortran order over the
  non-n indices).  Under this convention::

      unfold(X, 1) = A @ kr(C, B).T
      unfold(X, 2) = B @ kr(C, A).T
      unfold(X, 3) = C @ kr(B, A).T

  for X composed from factors (A, B, C), where ``kr(U, V)`` is the Khatri-Rao
  product with column r = kron(U[:, r], V[:, r]) (V index varies fastest).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_complex(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


@dataclass(frozen=True)
class ComplexTensor3:
    """Immutable dense complex tensor of order 3."""

    data: np.ndarray

    def __post_init__(self):
        # a private copy: freezing must not make the caller's array read-only
        arr = np.array(self.data, dtype=np.complex128, order="C")
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-way array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"all dimensions must be positive, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def __eq__(self, other):
        return isinstance(other, ComplexTensor3) and np.array_equal(self.data, other.data)


@dataclass(frozen=True)
class FactorTriple:
    """CP factor matrices (A, B, C) sharing the column count R; each
    component's scale lives in its columns."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A, B, C = (np.array(m, dtype=np.complex128, order="C")
                   for m in (self.A, self.B, self.C))
        for name, m in (("A", A), ("B", B), ("C", C)):
            if m.ndim != 2:
                raise ValueError(f"factor {name} must be a matrix")
        if not (A.shape[1] == B.shape[1] == C.shape[1]):
            raise ValueError(
                f"factor column counts differ: {A.shape[1]}, {B.shape[1]}, {C.shape[1]}"
            )
        for m in (A, B, C):
            m.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def rank(self) -> int:
        return self.A.shape[1]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.A.shape[0], self.B.shape[0], self.C.shape[0])


def unfold(X: ComplexTensor3, mode: int) -> np.ndarray:
    """Mode-n unfolding: shape (I_n, prod of the other dims)."""
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    arr = np.moveaxis(X.data, mode - 1, 0)
    return arr.reshape(arr.shape[0], -1, order="F")


def khatri_rao(A, B) -> np.ndarray:
    """Columnwise Kronecker product; column r = kron(A[:, r], B[:, r])."""
    A, B = _as_complex(A), _as_complex(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(f"column counts must match, got {A.shape} and {B.shape}")
    I, R = A.shape
    J = B.shape[0]
    # index (i, j) with j fastest, matching np.kron(a, b)
    return (A[:, None, :] * B[None, :, :]).reshape(I * J, R)


def compose(F: FactorTriple) -> ComplexTensor3:
    """Assemble the dense tensor  X_ijk = sum_r A_ir B_jr C_kr."""
    I1, I2, I3 = F.dims
    if F.rank == 0:
        return ComplexTensor3(np.zeros((I1, I2, I3), dtype=np.complex128))
    arr = np.einsum("ir,jr,kr->ijk", F.A, F.B, F.C, optimize=True)
    return ComplexTensor3(arr)


def frobenius_norm(X: ComplexTensor3) -> float:
    return float(np.linalg.norm(X.data))
