"""Shared fixtures and test helpers: random channels, instruments and states,
`apply`, the channel's action read straight off its Choi operator,
`choi_from_map`, which builds a Choi operator one matrix unit at a time,
`reorder`, which puts an operator's subsystems in a new order with `regroup`,
`identity_channel`, `prepare_channel`, the state-vector helpers
`permute_vector` and `vector_bra_contract`, `gram_rank`,
`face_dimension_by_basis`, `reference_deviation`, `pair_link_oracle`,
`kraus_by_eigenpairs` and `gather_by_index_loop`.  The package does not
use the last nine; the tests keep them as independent oracles.
`PARITY_ALPHAS` is the alpha grid of the exact-parity tests."""
import functools
import itertools
from typing import Callable, Sequence

import numpy as np
import pytest

from nosigchan.tensor import (SystemLayout, TensorError, as_matrix, eigh, kron, layout, max_entangled_vec,
                              ptrace, regroup)
from nosigchan import counterexample
from nosigchan.channels import (
    IN_TAG,
    KRAUS_CUTOFF,
    OUT_TAG,
    Channel,
    ChannelError,
    channel_from_kraus,
    choi_layout,
    kraus_from_choi,
    link,
    outcome_stack,
)
from nosigchan.analysis import EXTREMALITY_REL_TOL, FaceDimension

OUTCOME = "#x"
# the 41-point grid with its ends, and points near the ends and in between
PARITY_ALPHAS = list(np.linspace(0.0, 1.0, 41)) + [1e-6, 1.0 / 6.0, 0.123456789, 2.0 / 3.0,
                                                   0.999999]


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
    return np.ascontiguousarray(t.reshape(-1)), lay.select(target_labels)


def reorder(m, lay: SystemLayout, target_labels: Sequence[str]) -> np.ndarray:
    """An operator on `lay` with its subsystems in the given label order."""
    return regroup(m, lay, [(l, 0) for l in target_labels], [(l, 1) for l in target_labels])


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


@functools.cache
def _deviation_terms(in_layout, out_layout, in_subset, out_subset):
    """The factorization deviation as explicit terms dev[dst] += w D[src].

    Written leg by leg with index loops over every (ket, bra) pair of the
    Choi layout, calling no tensor routine of the package: an entry of D
    with equal traced legs lands at its (sender, rest) position, and on
    the diagonal sender blocks with weight -1/d_s when its sender legs agree.
    """
    labels = [l + OUT_TAG for l in out_layout.labels] + [l + IN_TAG for l in in_layout.labels]
    dims = out_layout.dims + in_layout.dims
    traced = [labels.index(l + OUT_TAG) for l in out_subset]
    sender = [labels.index(l + IN_TAG) for l in in_subset]
    rest = [p for p in range(len(dims)) if p not in traced + sender]

    def fold(index, positions):
        i = 0
        for p in positions:
            i = i * dims[p] + index[p]
        return i

    ds = int(np.prod([dims[p] for p in sender]))
    dr = int(np.prod([dims[p] for p in rest]))
    side = ds * dr
    terms = []
    legs = [range(d) for d in dims]
    for ket in itertools.product(*legs):
        for bra in itertools.product(*legs):
            if any(ket[p] != bra[p] for p in traced):
                continue
            src = fold(ket, range(len(dims))) * int(np.prod(dims)) + fold(bra, range(len(dims)))
            terms.append((fold(ket, sender + rest) * side + fold(bra, sender + rest), src, 1.0))
            if all(ket[p] == bra[p] for p in sender):
                r, c = fold(ket, rest), fold(bra, rest)
                for k in range(ds):
                    terms.append(((k * dr + r) * side + k * dr + c, src, -1.0 / ds))
    dst, src, w = (np.array(t) for t in zip(*terms))
    return dst, src, w, side


def reference_deviation(d, in_layout, out_layout, in_subset, out_subset):
    """Tr_{out_subset} d - I_{in_subset} (x) S with the sender inputs first, as
    `nosignal._factorization_deviation` lays it out, from `_deviation_terms`."""
    dst, src, w, side = _deviation_terms(in_layout, out_layout, tuple(in_subset), tuple(out_subset))
    out = np.zeros(side * side, dtype=complex)
    np.add.at(out, dst, w * np.asarray(d).reshape(-1)[src])
    return out.reshape(side, side)


def _hermitian_basis(r: int):
    """Hilbert-Schmidt orthonormal basis of the r x r Hermitian matrices."""
    for i in range(r):
        for j in range(i, r):
            if i == j:
                x = np.zeros((r, r), dtype=complex)
                x[i, i] = 1
                yield x
                continue
            for phase in (1, 1j):
                x = np.zeros((r, r), dtype=complex)
                x[i, j] = phase / np.sqrt(2)
                x[j, i] = np.conj(phase) / np.sqrt(2)
                yield x


def face_dimension_by_basis(
    c: Channel,
    a_in_labels: Sequence[str],
    a_out_labels: Sequence[str],
    b_in_labels: Sequence[str],
    b_out_labels: Sequence[str],
) -> FaceDimension:
    """`analysis.ns_face_dimension` one Hermitian basis element at a time.

    The real constraint matrix has one column per element X of the basis:
    Tr_out D and both factorization deviations of D = V X V†, with V the
    unit-norm Kraus vectors, real and imaginary parts stacked.  The oracle
    for the face dimension, which the package reads off Kraus pairs.
    """
    ks = kraus_from_choi(c)
    v = np.array([k.reshape(-1) / np.linalg.norm(k) for k in ks]).T
    r = v.shape[1]
    lay = choi_layout(c.out_layout, c.in_layout)
    out_labels = lay.labels[: len(c.out_layout)]

    def constraints(x):
        d = v @ x @ v.conj().T
        rows = [
            ptrace(d, lay, out_labels),
            reference_deviation(d, c.in_layout, c.out_layout, a_in_labels, a_out_labels),
            reference_deviation(d, c.in_layout, c.out_layout, b_in_labels, b_out_labels),
        ]
        flat = np.concatenate([m.reshape(-1) for m in rows])
        return np.concatenate([flat.real, flat.imag])

    m = np.array([constraints(x) for x in _hermitian_basis(r)]).T
    sv = np.linalg.svd(m, compute_uv=False)
    tol = EXTREMALITY_REL_TOL * sv[0]
    kept = sv[sv > tol]
    return FaceDimension(r, r * r - kept.size, float(kept[-1]), float(tol))


def identity_channel(lay: SystemLayout) -> Channel:
    """The identity channel on lay: Choi |I>><<I|."""
    v = max_entangled_vec(lay.total_dim)
    return Channel(np.outer(v, v.conj()), lay, lay)


def pair_link_oracle(g: Channel, label: str) -> Channel:
    """link(pair, g, [g's last input]), the pair (1/sqrt d)|I>> on that input
    and `label` built as a state and wired in by the link product.  The oracle
    for `nosignal._fed_by_pair`, which moves the legs instead."""
    d = g.in_layout.dims[-1]
    phi = max_entangled_vec(d, normalized=True)
    pair = Channel(np.outer(phi, phi.conj()), SystemLayout(()),
                   SystemLayout((("#pair", d), (label, d))))
    fed = Channel(g.choi, SystemLayout(g.in_layout.subsystems[:-1] + (("#pair", d),)), g.out_layout)
    return link(pair, fed, ["#pair"])


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


def kraus_by_eigenpairs(c: Channel):
    """`kraus_from_choi` one eigenpair at a time: sqrt(l)|v> reshaped to an
    operator for each eigenvalue l > KRAUS_CUTOFF, in `eigh`'s order."""
    w, v = eigh(c.choi)
    ks = []
    for lam, col in zip(w, v.T):
        if lam > KRAUS_CUTOFF:
            ks.append(np.sqrt(lam) * col.reshape(c.d_out, c.d_in))
    return ks


def gather_by_index_loop(alpha: float, variant: str) -> np.ndarray:
    """`counterexample._branches` one entry at a time from `_entry_map`'s q:
    branch x's entry (i, j) is the Choi state's entry (q[x, i], q[x, j]).

    The state is |I>><<I| on (A_in, B_in | A, B), index h = 4 (A_in, B_in) +
    (A, B), tensored with the 16 x 16 ancilla state.  The reference factor's
    entry is 1 when both its indices have h // 4 == h % 4 and 0 otherwise, so
    the state's entry is the ancilla entry or 0, never a product.
    """
    q, _ = counterexample._entry_map(variant)
    phi2 = max_entangled_vec(2, normalized=True)
    psi = counterexample.pair_state_vec(alpha)
    ancillas = kron(np.outer(phi2, phi2.conj()), np.outer(psi, psi.conj()))
    out = np.zeros((q.shape[0], q.shape[1], q.shape[1]), dtype=complex)
    for x in range(q.shape[0]):
        for i in range(q.shape[1]):
            hi, li = divmod(int(q[x, i]), 16)
            if hi // 4 != hi % 4:
                continue
            for j in range(q.shape[1]):
                hj, lj = divmod(int(q[x, j]), 16)
                if hj // 4 == hj % 4:
                    out[x, i, j] = ancillas[li, lj]
    return out
