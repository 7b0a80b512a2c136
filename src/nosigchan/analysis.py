"""The three verdicts on a bipartite channel.

Entanglement-breaking is witnessed by a negative eigenvalue of the partially
transposed Choi (outputs|inputs split); localizability is witnessed against
by a CHSH value above 2*sqrt(2).  Extremality has two certificates, one per
convex set: `extremality_rank` (Choi's linear independence of the Kraus
products K_i† K_j) decides extremality among all channels, and
`ns_face_dimension` decides it among no-signaling channels, the set in which
a no-signaling channel that is neither entanglement-breaking nor localizable
refutes the conjecture that every no-signaling channel mixes the two kinds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .tensor import eigh, ptrace, ptranspose
from .channels import (
    Channel,
    IN_TAG,
    choi_layout,
    kraus_from_choi,
)
from .nosignal import (
    NOSIGNAL_TOL,
    SignalingVerdict,
    _factorization_deviation,
    signaling_verdict,
)
from . import counterexample

TSIRELSON = float(2.0 * np.sqrt(2.0))
PPT_TOL = 1e-6
CHSH_SLACK = 1e-6
EXTREMALITY_REL_TOL = 1e-10


@dataclass(frozen=True)
class AnalysisReport:
    """Structured verdicts plus every threshold that backed them."""

    nosignaling: SignalingVerdict
    ppt_min_eigenvalue: float
    ppt_violated: bool
    chsh_value: Optional[float]
    chsh_exceeds_tsirelson: Optional[bool]
    n_kraus: int
    extremality_rank: int
    extremality_full: bool
    tolerances: Dict[str, float]


def ppt_min_eig(c: Channel) -> float:
    """Minimum eigenvalue of the Choi partially transposed on the input side."""
    lay = choi_layout(c.out_layout, c.in_layout)
    in_labels = [l for l in lay.labels if l.endswith(IN_TAG)]
    pt = ptranspose(c.choi, lay, in_labels)
    w, _ = eigh(pt)
    return float(w[-1])


def _chsh_applicable(c: Channel) -> bool:
    return (
        c.in_layout.subsystems == counterexample.IN_LAYOUT.subsystems
        and c.out_layout.subsystems == counterexample.OUT_LAYOUT.subsystems
    )


def chsh_value(c: Channel) -> float:
    """CHSH combination of the four correlators read off the Choi operator.

    The settings are fixed: sigma_z on the A and B output wires, computational
    basis states on the two input wires, identity on the W pair.  Every one of
    them is diagonal in the computational basis, so each correlator
    Tr[O R] = sum_i O_ii R_ii is a +-1/0-weighted sum of the Choi diagonal,
    whose six qubit legs are (A, W_A, W_B, B | A, B).
    """
    if not _chsh_applicable(c):
        raise ValueError(
            "CHSH test needs the counterexample layout "
            f"{counterexample.OUT_LAYOUT.labels} | {counterexample.IN_LAYOUT.labels}"
        )
    diag = np.diagonal(c.choi)
    z = np.array([1.0, -1.0])
    zz = z[:, None, None, None] * z  # sigma_z on the A and B outputs

    def corr(n: int, m: int) -> float:
        obs = np.zeros((2,) * 6)
        obs[..., n, m] = zz
        # the whole 64-entry weighted vector, zeros included, in index order
        return float(np.real(np.sum(obs.reshape(-1) * diag)))

    return abs(corr(0, 0) + corr(0, 1) + corr(1, 0) - corr(1, 1))


def extremality_rank(c: Channel):
    """(number of Kraus, rank of {K_i† K_j}, full).  Full rank certifies extremality.

    The rank is read off the singular values of the r² x d_in² stack of the
    products, which span at most d_in² dimensions.  Singular values at or
    below EXTREMALITY_REL_TOL times the largest count as zero, the rule
    `ns_face_dimension` applies, so r² minus this rank is its face dimension
    without no-signaling rows.
    """
    ks = np.array(kraus_from_choi(c))
    r = len(ks)
    products = np.einsum("iab,jac->ijbc", ks.conj(), ks).reshape(r * r, c.d_in * c.d_in)
    sv = np.linalg.svd(products, compute_uv=False)
    rank = int(np.sum(sv > EXTREMALITY_REL_TOL * sv[0]))
    return r, rank, rank == r * r


@dataclass(frozen=True)
class FaceDimension:
    """Dimension of the face of a convex set of channels at one channel.

    `min_singular_value` is the smallest singular value of the constraint map
    above `tolerance`, so it measures the gap behind the count.
    """

    support_rank: int
    face_dimension: int
    min_singular_value: float
    tolerance: float


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


def ns_face_dimension(
    c: Channel,
    a_in_labels: Sequence[str],
    a_out_labels: Sequence[str],
    b_in_labels: Sequence[str],
    b_out_labels: Sequence[str],
) -> FaceDimension:
    """Dimension of the face of the no-signaling channels that contains c.

    With V an orthonormal basis of the support of the Choi (eigenvalues above
    KRAUS_CUTOFF, as in `kraus_from_choi`), c +- eps V X V† stays completely
    positive for every Hermitian r x r matrix X and small eps.  The face
    dimension is the dimension of the real kernel of X -> (Tr_out D, A-to-B
    deviation of D, B-to-A deviation of D) with D = V X V†, the deviations
    being the ones `signaling_verdict` measures.  It is 0 exactly when c,
    assumed no-signaling, is extreme among no-signaling channels.  Singular
    values at or below EXTREMALITY_REL_TOL times the largest count as kernel.

    Empty label lists make the no-signaling rows vacuous, and the face is
    then the one among all channels: r² minus `extremality_rank`'s rank.
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
            _factorization_deviation(d, c.in_layout, c.out_layout, a_in_labels, a_out_labels)[0],
            _factorization_deviation(d, c.in_layout, c.out_layout, b_in_labels, b_out_labels)[0],
        ]
        flat = np.concatenate([m.reshape(-1) for m in rows])
        return np.concatenate([flat.real, flat.imag])

    m = np.array([constraints(x) for x in _hermitian_basis(r)]).T
    sv = np.linalg.svd(m, compute_uv=False)
    tol = EXTREMALITY_REL_TOL * sv[0]
    kept = sv[sv > tol]
    return FaceDimension(r, r * r - kept.size, float(kept[-1]), float(tol))


def analyze(
    c: Channel,
    a_in_labels: Sequence[str],
    a_out_labels: Sequence[str],
    b_in_labels: Sequence[str],
    b_out_labels: Sequence[str],
    nosignal_tol: float = NOSIGNAL_TOL,
) -> AnalysisReport:
    """Run every applicable verdict on a channel with the given bipartition."""
    verdict = signaling_verdict(
        c, a_in_labels, a_out_labels, b_in_labels, b_out_labels, tol=nosignal_tol
    )
    min_eig = ppt_min_eig(c)
    if _chsh_applicable(c):
        chsh = chsh_value(c)
        exceeds = bool(chsh > TSIRELSON + CHSH_SLACK)
    else:
        chsh = None
        exceeds = None
    n_kraus, rank, full = extremality_rank(c)
    return AnalysisReport(
        nosignaling=verdict,
        ppt_min_eigenvalue=min_eig,
        ppt_violated=min_eig < -PPT_TOL,
        chsh_value=chsh,
        chsh_exceeds_tsirelson=exceeds,
        n_kraus=n_kraus,
        extremality_rank=rank,
        extremality_full=full,
        tolerances={
            "nosignal_tol": nosignal_tol,
            "ppt_tol": PPT_TOL,
            "chsh_slack": CHSH_SLACK,
            "extremality_rel_tol": EXTREMALITY_REL_TOL,
        },
    )
