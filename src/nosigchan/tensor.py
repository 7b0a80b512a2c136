"""Dense complex linear algebra over multi-subsystem Hilbert spaces.

Index convention used everywhere: row-major, first tensor factor most
significant.  A layout ``[(A, dA), (B, dB)]`` indexes basis states as
``i = a * dB + b``.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

HERMITICITY_TOL = 1e-9


class TensorError(ValueError):
    """Bad layout, label, or dimension in a tensor operation."""


def _dimension(label, d) -> int:
    """d as an int; a float or bool dimension is an error, never truncated."""
    if not isinstance(d, (bool, np.bool_)):
        try:
            return operator.index(d)
        except TypeError:
            pass
    raise TensorError(f"subsystem {label!r} has non-integer dimension {d!r}")


@dataclass(frozen=True)
class SystemLayout:
    """Ordered list of labeled subsystem dimensions.

    The single source of truth for tensor-index bookkeeping: every
    partial trace / transpose / permutation names subsystems by label.
    """

    subsystems: Tuple[Tuple[str, int], ...]

    def __post_init__(self):
        subs = tuple((l, _dimension(l, d)) for l, d in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        labels = [l for l, _ in subs]
        for l in labels:
            if not isinstance(l, str):
                raise TensorError(f"subsystem label {l!r} is not a string")
        if len(set(labels)) != len(labels):
            raise TensorError(f"duplicate labels in layout: {labels}")
        for l, d in subs:
            if d < 1:
                raise TensorError(f"subsystem {l!r} has dimension {d} < 1")

    # read on every leg-routine call, so each is computed once per layout
    @functools.cached_property
    def labels(self) -> Tuple[str, ...]:
        return tuple(l for l, _ in self.subsystems)

    @functools.cached_property
    def dims(self) -> Tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    @functools.cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.subsystems)

    def index(self, label: str) -> int:
        for i, (l, _) in enumerate(self.subsystems):
            if l == label:
                return i
        raise TensorError(f"unknown label {label!r}; have {self.labels}")

    def dim(self, label: str) -> int:
        return self.subsystems[self.index(label)][1]

    def indices(self, labels: Iterable[str]) -> Tuple[int, ...]:
        return tuple(self.index(l) for l in labels)

    def drop(self, labels: Iterable[str]) -> "SystemLayout":
        gone = set(labels)
        missing = gone - set(self.labels)
        if missing:
            raise TensorError(f"unknown labels {sorted(missing)}")
        return SystemLayout(tuple(s for s in self.subsystems if s[0] not in gone))

    def select(self, labels: Iterable[str]) -> "SystemLayout":
        return SystemLayout(tuple((l, self.dim(l)) for l in labels))

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        return SystemLayout(self.subsystems + other.subsystems)

    def relabel(self, suffix: str) -> "SystemLayout":
        return SystemLayout(tuple((l + suffix, d) for l, d in self.subsystems))


def layout(*subsystems) -> SystemLayout:
    """Shorthand: layout(("A", 2), ("B", 2)) or layout("A", "B") for qubits."""
    subs = []
    for s in subsystems:
        if isinstance(s, str):
            subs.append((s, 2))
        else:
            subs.append(tuple(s))
    return SystemLayout(tuple(subs))


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise TensorError(f"expected a matrix, got shape {a.shape}")
    return a


def kron(*ms) -> np.ndarray:
    """Kronecker product; first factor is the most significant index."""
    out = np.asarray(ms[0], dtype=complex)
    for m in ms[1:]:
        out = np.kron(out, m)
    return out


@functools.cache
def _plan(lay: SystemLayout, rows: tuple, cols: tuple):
    """How `regroup` moves the legs of an operator on `lay`, worked out once per key:
    the tensor shape (ket legs, then bra legs), the (axis1, axis2) pairs to trace
    in turn, the transpose axes and the result shape.  Traced pairs go one at a time
    in layout order, so a partial trace sums as it always has.  Every leg is checked here.
    """
    legs = rows + cols
    if not all(isinstance(leg, tuple) and len(leg) == 2 for leg in legs):
        raise TensorError(f"a leg must be a (label, side) pair: {legs}")
    named = {l for l, _ in legs}
    lay.indices(named)  # an unknown label raises
    if len(set(legs)) != len(legs) or set(legs) != {(l, s) for l in named for s in (0, 1)}:
        raise TensorError(f"legs {legs} must name both legs of a label, (label, 0) "
                          f"for its ket and (label, 1) for its bra, once each, or neither")
    kept = [l for l in lay.labels if l in named]
    gone = [p for p, l in enumerate(lay.labels) if l not in named]
    # the k earlier traced pairs are already gone from the n + n axes
    traces = tuple((p - k, p - k + len(lay) - k) for k, p in enumerate(gone))
    axes = tuple(kept.index(l) + side * len(kept) for l, side in legs)
    shape = tuple(math.prod(lay.dim(l) for l, _ in side) for side in (rows, cols))
    return lay.dims * 2, traces, axes, shape


def regroup(m, lay: SystemLayout, rows, cols) -> np.ndarray:
    """The one routine that traces, transposes and reorders an operator's legs.

    `rows` and `cols` name the result's row and column legs, most significant
    first, as (label, side): side 0 is the ket leg, side 1 the bra leg.  A
    label with neither leg named is traced out; one with its legs on swapped
    sides is transposed.  A leg that is not a (label, side) pair, an unknown or
    repeated leg, or a label named on one side only, raises TensorError.
    """
    m = as_matrix(m)
    if m.shape != (lay.total_dim,) * 2:
        raise TensorError(f"matrix shape {m.shape} does not match layout dim {lay.total_dim}")
    try:
        shape, traces, axes, out = _plan(lay, tuple(rows), tuple(cols))
    except TypeError as exc:  # an unhashable leg, which the cache meets first
        raise TensorError(f"a leg must be a (label, side) pair: rows {rows}, cols {cols}") from exc
    t = m.reshape(shape)
    for a1, a2 in traces:
        t = np.trace(t, axis1=a1, axis2=a2)
    return np.ascontiguousarray(t.transpose(axes).reshape(out))


def ptrace(m, lay: SystemLayout, traced_labels: Iterable[str]) -> np.ndarray:
    """Partial trace over the named subsystems; remaining ones keep their order."""
    gone = tuple(traced_labels)
    keep = [l for l in lay.labels if l not in gone]
    if len(keep) + len(gone) != len(lay):  # an unknown or repeated label
        raise TensorError(f"cannot trace {gone} out of {lay.labels}")
    return regroup(m, lay, [(l, 0) for l in keep], [(l, 1) for l in keep])


def ptranspose(m, lay: SystemLayout, transposed_labels: Iterable[str]) -> np.ndarray:
    """Transpose only the named tensor factors, in the computational basis."""
    flip = tuple(transposed_labels)
    if len(set(flip).intersection(lay.labels)) != len(flip):  # an unknown or repeated label
        raise TensorError(f"cannot transpose {flip} on {lay.labels}")
    return regroup(m, lay, [(l, int(l in flip)) for l in lay.labels],
                   [(l, int(l not in flip)) for l in lay.labels])


def _hermitian_part(m, tol: float) -> np.ndarray:
    """(M + M†)/2 after the Hermiticity check; real when its imaginary part is
    exactly zero, so LAPACK runs its real symmetric driver on it."""
    m = as_matrix(m)
    mh = m.conj().T
    dev = np.max(np.abs(m - mh)) if m.size else 0.0
    if dev > tol:
        raise TensorError(f"matrix is not Hermitian: max|M - M†| = {dev:.3e}")
    h = (m + mh) / 2
    return h if h.imag.any() else h.real


def eigh(m, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with columns matching eigenvalues,
    so that m = V @ diag(w) @ V†.  The eigenvectors are complex; a matrix
    whose Hermitian part is exactly real gets them from the real symmetric
    driver, so they are real-valued.
    """
    w, v = np.linalg.eigh(_hermitian_part(m, tol))
    return w[::-1].copy(), np.ascontiguousarray(v[:, ::-1], dtype=complex)


def eigvalsh(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending, under `eigh`'s check.

    Skips the eigenvectors, which halves the cost where only the spectrum
    is read.  As in `eigh`, an exactly real Hermitian part goes to the real
    symmetric driver.
    """
    return np.linalg.eigvalsh(_hermitian_part(m, tol))[::-1].copy()


def embed(op, op_labels: Sequence[str], lay: SystemLayout) -> np.ndarray:
    """Operator acting as `op` on the named subsystems (in the listed order)
    and as identity on the rest of `lay`."""
    op = as_matrix(op)
    sub = lay.select(op_labels)
    if op.shape != (sub.total_dim, sub.total_dim):
        raise TensorError(f"operator shape {op.shape} does not match labels {op_labels}")
    rest = lay.drop(op_labels)
    big = kron(op, np.eye(rest.total_dim))
    return regroup(big, sub.concat(rest), [(l, 0) for l in lay.labels],
                   [(l, 1) for l in lay.labels])


# Small operator zoo used across the package.
def pauli(which: str) -> np.ndarray:
    table = {
        "i": np.eye(2),
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    return table[which.lower()].astype(complex)


def shift_op(d: int) -> np.ndarray:
    """Cyclic shift X|j> = |j+1 mod d>; generalizes Pauli X."""
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1
    return x


def clock_op(d: int) -> np.ndarray:
    """Phase (clock) Z|j> = w^j |j> with w = exp(2 pi i / d)."""
    w = np.exp(2j * np.pi / d)
    return np.diag(w ** np.arange(d)).astype(complex)


def max_entangled_vec(d: int, normalized: bool = False) -> np.ndarray:
    """|I>> = sum_n |n>|n> on a d x d pair; optionally scaled by 1/sqrt(d)."""
    v = np.eye(d, dtype=complex).reshape(-1)
    return v / np.sqrt(d) if normalized else v


def swap_op(d: int) -> np.ndarray:
    """SWAP on a d x d pair."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1
    return s


def controlled_swap(d: int = 2) -> np.ndarray:
    """Controlled-SWAP on (control, t1, t2); swap fires on control |1>."""
    p0 = np.zeros((2, 2), dtype=complex)
    p0[0, 0] = 1
    p1 = np.zeros((2, 2), dtype=complex)
    p1[1, 1] = 1
    return kron(p0, np.eye(d * d)) + kron(p1, swap_op(d))
