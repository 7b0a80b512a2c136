"""Shared fixtures and test helpers: random channels, instruments and states,
`apply`, the channel's action read straight off its Choi operator,
`choi_from_map`, which builds a Choi operator one matrix unit at a time,
`prepare_channel`, the state-vector helpers `permute_vector` and
`vector_bra_contract`, and `gram_rank`.  The package no longer uses the last
four; the tests keep them as independent oracles."""
from typing import Callable, Sequence

import numpy as np
import pytest

from nosigchan.tensor import SystemLayout, TensorError, as_matrix, eigh, kron, layout
from nosigchan.channels import Channel, ChannelError, channel_from_kraus, outcome_stack

OUTCOME = "#x"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_state_vec(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def apply(c: Channel, rho) -> np.ndarray:
    """C(rho) = Tr_in[(I_out x rho^T) choi]."""
    rho = as_matrix(rho)
    if rho.shape != (c.d_in, c.d_in):
        raise ChannelError(f"state shape {rho.shape}, channel input dim {c.d_in}")
    r4 = c.choi.reshape(c.d_out, c.d_in, c.d_out, c.d_in)
    return np.einsum("ki,akbi->ab", rho, r4)


def choi_from_map(
    fn: Callable[[np.ndarray], np.ndarray],
    in_layout: SystemLayout,
    out_layout: SystemLayout,
) -> Channel:
    """Choi of a linear map given as a function on density matrices.

    Applies fn to every matrix unit |i><k| of the input space.
    """
    di, do = in_layout.total_dim, out_layout.total_dim
    choi = np.zeros((do * di, do * di), dtype=complex)
    unit = np.zeros((di, di), dtype=complex)
    for i in range(di):
        for k in range(di):
            unit[i, k] = 1
            choi += kron(fn(unit), unit)
            unit[i, k] = 0
    return Channel(choi, in_layout, out_layout)


def permute_vector(v, lay: SystemLayout, target_labels: Sequence[str]):
    """Reorder tensor factors of a state vector; returns (vector, layout)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != lay.total_dim:
        raise TensorError(f"vector length {v.size} does not match layout dim {lay.total_dim}")
    order = lay.indices(target_labels)
    if len(order) != len(lay):
        raise TensorError("target label list must cover the whole layout")
    t = v.reshape(lay.dims).transpose(order)
    return np.ascontiguousarray(t.reshape(-1)), lay.permuted(order)


def vector_bra_contract(v, lay: SystemLayout, labels: Sequence[str], bra):
    """Contract <bra| (on the named subsystems) with a state vector.

    Returns the reduced vector on lay.drop(labels).
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    bra = np.asarray(bra, dtype=complex).reshape(-1)
    front = list(labels) + [l for l in lay.labels if l not in set(labels)]
    vv, play = permute_vector(v, lay, front)
    db = play.select(labels).total_dim
    if bra.size != db:
        raise TensorError(f"bra length {bra.size} does not match labels {labels}")
    return bra.conj() @ vv.reshape(db, -1)


def gram_rank(ops: Sequence[np.ndarray], rel_tol: float = 1e-10) -> int:
    """Rank of the Gram matrix G[i,j] = Tr[ops[i]† ops[j]].

    Counts eigenvalues above rel_tol times the largest one.  The oracle for
    `analysis.extremality_rank`, which reads the same rank off singular values.
    """
    if len(ops) == 0:
        raise TensorError("gram_rank needs at least one operator")
    shape = np.asarray(ops[0]).shape
    flat = []
    for op in ops:
        a = as_matrix(op)
        if a.shape != shape:
            raise TensorError("all operators must have the same shape")
        flat.append(a.reshape(-1))
    stack = np.array(flat)
    g = stack.conj() @ stack.T
    w, _ = eigh(g, tol=1e-8 * max(1.0, np.max(np.abs(g))))
    top = w[0]
    if top <= 0:
        return 0
    return int(np.sum(w > rel_tol * top))


def prepare_channel(sigma, out_layout: SystemLayout, in_layout: SystemLayout) -> Channel:
    """Discard the input and prepare the fixed state sigma."""
    return Channel(kron(sigma, np.eye(in_layout.total_dim)), in_layout, out_layout)


def random_cptp(
    rng: np.random.Generator,
    in_layout: SystemLayout,
    out_layout: SystemLayout,
    n_kraus: int = None,
) -> Channel:
    """Random CPTP channel from a Haar-ish isometry (QR of a Gaussian block)."""
    di, do = in_layout.total_dim, out_layout.total_dim
    if n_kraus is None:
        n_kraus = max(2, di)
    g = rng.standard_normal((do * n_kraus, di)) + 1j * rng.standard_normal((do * n_kraus, di))
    q, _ = np.linalg.qr(g)  # isometry: q† q = I_di
    ks = [q[i * do : (i + 1) * do, :] for i in range(n_kraus)]
    return channel_from_kraus(ks, in_layout, out_layout)


def random_instrument(
    rng: np.random.Generator,
    in_layout: SystemLayout,
    out_layout: SystemLayout,
    n_outcomes: int = 2,
) -> Channel:
    """Random instrument: partition the Kraus set of a random channel.

    The outcome is the last output, a classical wire labelled OUTCOME.
    """
    di, do = in_layout.total_dim, out_layout.total_dim
    n_kraus = max(n_outcomes, di)
    g = rng.standard_normal((do * n_kraus, di)) + 1j * rng.standard_normal((do * n_kraus, di))
    q, _ = np.linalg.qr(g)
    ks = [q[i * do : (i + 1) * do, :] for i in range(n_kraus)]
    groups = [[] for _ in range(n_outcomes)]
    for i, k in enumerate(ks):
        groups[i % n_outcomes].append(k)
    branches = []
    for grp in groups:
        b = np.zeros((do * di, do * di), dtype=complex)
        for k in grp:
            v = k.reshape(-1)
            b += np.outer(v, v.conj())
        branches.append(b)
    return Channel(outcome_stack(branches, do, di), in_layout,
                   out_layout.concat(layout((OUTCOME, n_outcomes))))


def random_controlled(
    rng: np.random.Generator,
    in_layout: SystemLayout,
    out_layout: SystemLayout,
    n_messages: int = 2,
) -> Channel:
    """Random channels picked by a classical message, the first input OUTCOME."""
    chois = [random_cptp(rng, in_layout, out_layout).choi for _ in range(n_messages)]
    return Channel(outcome_stack(chois, out_layout.total_dim, in_layout.total_dim),
                   layout((OUTCOME, n_messages)).concat(in_layout), out_layout)
