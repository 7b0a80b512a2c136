"""The three verdicts on a bipartite channel.

Entanglement-breaking is witnessed by a negative eigenvalue of the partially
transposed Choi (outputs|inputs split); localizability is witnessed against
by a CHSH value above 2*sqrt(2).  Extremality has two certificates, one per
convex set, read off one constraint matrix over pairs of Kraus operators:
`extremality_rank` (Choi's linear independence of the products K_i† K_j,
the trace-preservation rows) decides extremality among all channels, and
`ns_face_dimension` (all rows) decides it among no-signaling channels, the
set in which a no-signaling channel that is neither entanglement-breaking
nor localizable refutes the conjecture that every no-signaling channel
mixes the two kinds.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .tensor import eigvalsh, ptranspose
from .channels import Channel, IN_TAG, choi_layout, kraus_from_choi
from .nosignal import (NOSIGNAL_TOL, SignalingVerdict, _deviation, _verdict_plan,
                       signaling_verdict)
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
    return float(eigvalsh(pt)[-1])


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
    w, diag = _chsh_weights(), np.diagonal(c.choi)

    def corr(n: int, m: int) -> float:
        # the whole 64-entry weighted vector, zeros included, in index order
        return float(np.real(np.sum(w[n, m] * diag)))

    return abs(corr(0, 0) + corr(0, 1) + corr(1, 0) - corr(1, 1))


@functools.cache
def _chsh_weights() -> np.ndarray:
    """w[n, m]: the +-1/0 weights of the correlator at inputs (n, m), read-only."""
    z, w = np.array([1.0, -1.0]), np.zeros((2, 2) + (2,) * 6)
    for n, m in np.ndindex(2, 2):
        w[n, m, ..., n, m] = z[:, None, None, None] * z  # sigma_z on the A and B outputs
    w.flags.writeable = False
    return w.reshape(2, 2, -1)


def _deviation_rows(ks, c: Channel, in_labels, out_labels):
    """Row (i, j): the deviation Tr_{out_labels} D - I_{in_labels} (x) S of
    D = |K_j>><<K_i| (`nosignal._deviation`, as in the verdict), transposed."""
    (lay, _, _), (ds, dr), _, (traced, sender, rest) = _verdict_plan(
        c.in_layout, c.out_layout, tuple(in_labels), tuple(out_labels))
    if not sender:  # no rows: the deviation vanishes identically
        return np.empty((len(ks) ** 2, 0))
    # each Kraus vector's legs as (traced, sender, rest), so the trace is one sum over t
    axes = (0,) + tuple(1 + p for p in lay.indices(traced + sender + rest))
    t = ks.reshape((len(ks),) + lay.dims).transpose(axes).reshape(len(ks), -1, ds * dr)
    m = np.einsum("itk,jtl->ijkl", t.conj(), t, optimize=True)  # one BLAS product
    m = m.reshape(len(ks) ** 2, ds, dr, ds, dr)
    return _deviation(m)[0].reshape(len(ks) ** 2, -1)


def _kraus_pair_rank(c: Channel, sides):
    """(r, singular values above the cut, cut) of the constraints on Kraus pairs.

    Row (i, j) constrains D = |K_j>><<K_i|, K = `kraus_from_choi(c)`: first
    Tr_out D, transposed the product K_i† K_j, then `_deviation_rows` of each
    (sender inputs, sender outputs) side.  Singular values at or below
    EXTREMALITY_REL_TOL times the largest count as zero.
    """
    ks = np.array(kraus_from_choi(c))
    r = len(ks)
    rows = [np.einsum("iab,jac->ijbc", ks.conj(), ks).reshape(r * r, c.d_in * c.d_in)]
    rows += [_deviation_rows(ks, c, *side) for side in sides]
    sv = np.linalg.svd(np.concatenate(rows, axis=1), compute_uv=False)
    cut = EXTREMALITY_REL_TOL * sv[0]
    return r, sv[sv > cut], float(cut)


def extremality_rank(c: Channel):
    """(number of Kraus, rank of {K_i† K_j}, full).  Full rank certifies extremality.

    The rank is that of the trace-preservation rows of `_kraus_pair_rank`,
    the r² x d_in² stack of the products, so r² minus it is
    `ns_face_dimension` without no-signaling rows.
    """
    r, kept, _ = _kraus_pair_rank(c, ())
    return r, kept.size, kept.size == r * r


@dataclass(frozen=True)
class FaceDimension:
    """Dimension of the face of a convex set of channels at one channel.

    `min_singular_value` is the smallest singular value of the constraint map
    above `tolerance`, in the basis of Kraus pairs (i, j) scaled by the
    Choi eigenvalues' square roots, so it measures the gap behind the count.
    """

    support_rank: int
    face_dimension: int
    min_singular_value: float
    tolerance: float


def ns_face_dimension(
    c: Channel,
    a_in_labels: Sequence[str],
    a_out_labels: Sequence[str],
    b_in_labels: Sequence[str],
    b_out_labels: Sequence[str],
) -> FaceDimension:
    """Dimension of the face of the no-signaling channels that contains c.

    For the r Kraus operators K of `kraus_from_choi`, c +- eps D with
    D = sum_ij X_ij |K_j>><<K_i| stays completely positive for every
    Hermitian r x r matrix X and small eps.  The face dimension is the
    dimension of the real kernel of X -> (Tr_out D, A-to-B deviation of D,
    B-to-A deviation of D), the deviations `signaling_verdict` measures.
    The map preserves Hermiticity, so that is the complex kernel's
    dimension on all X: r² minus the rank of `_kraus_pair_rank`.  It is 0
    exactly when c, assumed no-signaling, is extreme among no-signaling
    channels.  Empty label lists give the face among all channels.
    """
    sides = ((a_in_labels, a_out_labels), (b_in_labels, b_out_labels))
    r, kept, cut = _kraus_pair_rank(c, sides)
    return FaceDimension(r, r * r - kept.size, float(kept[-1]), cut)


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
