"""Dense complex linear algebra over multi-subsystem Hilbert spaces.

Index convention used everywhere: row-major, first tensor factor most
significant.  A layout ``[(A, dA), (B, dB)]`` indexes basis states as
``i = a * dB + b``.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

HERMITICITY_TOL = 1e-10


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
        subs = tuple((str(l), _dimension(l, d)) for l, d in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        labels = [l for l, _ in subs]
        if len(set(labels)) != len(labels):
            raise TensorError(f"duplicate labels in layout: {labels}")
        for l, d in subs:
            if d < 1:
                raise TensorError(f"subsystem {l!r} has dimension {d} < 1")

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(l for l, _ in self.subsystems)

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    @property
    def total_dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

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

    def permuted(self, order: Sequence[int]) -> "SystemLayout":
        if sorted(order) != list(range(len(self))):
            raise TensorError(f"not a permutation of {len(self)} positions: {order}")
        return SystemLayout(tuple(self.subsystems[i] for i in order))


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


def _check_square(m: np.ndarray, lay: SystemLayout) -> None:
    n = lay.total_dim
    if m.shape != (n, n):
        raise TensorError(f"matrix shape {m.shape} does not match layout dim {n}")


def kron(*ms) -> np.ndarray:
    """Kronecker product; first factor is the most significant index."""
    out = np.asarray(ms[0], dtype=complex)
    for m in ms[1:]:
        out = np.kron(out, m)
    return out


def permute_systems(m, lay: SystemLayout, order: Sequence[int]) -> np.ndarray:
    """Conjugate m by the unitary reordering tensor factors.

    ``order[i]`` is the position in ``lay`` that ends up at slot ``i``;
    the resulting layout is ``lay.permuted(order)``.
    """
    m = as_matrix(m)
    _check_square(m, lay)
    if sorted(order) != list(range(len(lay))):
        raise TensorError(f"not a permutation of {len(lay)} positions: {order}")
    dims = lay.dims
    n = len(dims)
    t = m.reshape(dims + dims)
    axes = list(order) + [n + i for i in order]
    t = t.transpose(axes)
    d = lay.total_dim
    return np.ascontiguousarray(t.reshape(d, d))


def permute_to(m, lay: SystemLayout, target_labels: Sequence[str]):
    """Reorder subsystems to the given label order; returns (matrix, layout)."""
    order = lay.indices(target_labels)
    if len(order) != len(lay):
        raise TensorError("target label list must cover the whole layout")
    return permute_systems(m, lay, order), lay.permuted(order)


def ptrace(m, lay: SystemLayout, traced_labels: Iterable[str]) -> np.ndarray:
    """Partial trace over the named subsystems; remaining ones keep their order."""
    m = as_matrix(m)
    _check_square(m, lay)
    gone = lay.indices(traced_labels)
    dims = lay.dims
    n = len(dims)
    t = m.reshape(dims + dims)
    for k, pos in enumerate(sorted(gone)):
        p = pos - k  # earlier traced axes are already gone
        t = np.trace(t, axis1=p, axis2=p + (n - k))
    d = lay.drop(traced_labels).total_dim
    return np.ascontiguousarray(t.reshape(d, d))


def ptranspose(m, lay: SystemLayout, transposed_labels: Iterable[str]) -> np.ndarray:
    """Transpose only the named tensor factors, in the computational basis."""
    m = as_matrix(m)
    _check_square(m, lay)
    flip = lay.indices(transposed_labels)
    dims = lay.dims
    n = len(dims)
    t = m.reshape(dims + dims)
    axes = list(range(2 * n))
    for p in flip:
        axes[p], axes[n + p] = axes[n + p], axes[p]
    d = lay.total_dim
    return np.ascontiguousarray(t.transpose(axes).reshape(d, d))


def _hermitian_part(m, tol: float) -> np.ndarray:
    m = as_matrix(m)
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if dev > tol:
        raise TensorError(f"matrix is not Hermitian: max|M - M†| = {dev:.3e}")
    return (m + m.conj().T) / 2


def eigh(m, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with columns matching eigenvalues,
    so that m = V @ diag(w) @ V†.
    """
    w, v = np.linalg.eigh(_hermitian_part(m, tol))
    return w[::-1].copy(), np.ascontiguousarray(v[:, ::-1])


def eigvalsh(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending, under `eigh`'s check.

    Skips the eigenvectors, which halves the cost where only the spectrum
    is read.
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
    big_lay = sub.concat(rest)
    out, _ = permute_to(big, big_lay, lay.labels)
    return out


def bra_sandwich(m, lay: SystemLayout, labels: Sequence[str], bra) -> np.ndarray:
    """<bra| M |bra> on the named subsystems of an operator; reduces them away."""
    m = as_matrix(m)
    _check_square(m, lay)
    bra = np.asarray(bra, dtype=complex).reshape(-1)
    front = list(labels) + [l for l in lay.labels if l not in set(labels)]
    mm, play = permute_to(m, lay, front)
    db = play.select(labels).total_dim
    dr = play.total_dim // db
    if bra.size != db:
        raise TensorError(f"bra length {bra.size} does not match labels {labels}")
    half = (bra.conj() @ mm.reshape(db, -1)).reshape(dr, db, dr)  # <bra| M
    return half.swapaxes(1, 2) @ bra


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
