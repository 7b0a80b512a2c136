"""Independent NumPy references for checking the benchmark's outputs.

Nothing here imports nosigchan: each reference restates the mathematics on
raw arrays, so a fault in the library cannot pass by agreeing with itself.
Choi operators follow the library's convention: unnormalised |I>>, factor
order (outputs, inputs), row-major with the first factor most significant.
"""
from __future__ import annotations

import numpy as np

TSIRELSON = float(2.0 * np.sqrt(2.0))


def random_choi(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    """Choi of a random CPTP map, from the QR isometry of a Gaussian block.

    It has at least two Kraus operators, and enough for the isometry to exist.
    """
    k = max(2, -(-d_in // d_out))
    g = rng.standard_normal((d_out * k, d_in)) + 1j * rng.standard_normal((d_out * k, d_in))
    q, _ = np.linalg.qr(g)
    vecs = q.reshape(k, d_out * d_in)  # row k is the row-major flattening of K_k
    return vecs.T @ vecs.conj()


def localizable_choi(ga, gb, a_out: int, a_in: int, b_out: int, b_in: int, d: int) -> np.ndarray:
    """Link product of two local pieces over the shared pair (1/sqrt d)|I>>.

    ga maps (a_in, E_A) to a_out and gb maps (b_in, E_B) to b_out, ancilla
    last; the result has outputs (a_out, b_out) and inputs (a_in, b_in).
    """
    ta = np.asarray(ga).reshape(a_out, a_in, d, a_out, a_in, d)
    tb = np.asarray(gb).reshape(b_out, b_in, d, b_out, b_in, d)
    r = np.einsum("xaeXAf,ubeUBf->xuabXUAB", ta, tb) / d
    n = a_out * b_out * a_in * b_in
    return r.reshape(n, n)


def semilocal_choi(v1, v2, a_in: int, a_out: int, relay: int, b_in: int, b_out: int) -> np.ndarray:
    """Link product of v1: a_in -> (a_out, relay) and v2: (relay, b_in) -> b_out over the relay."""
    t1 = np.asarray(v1).reshape(a_out, relay, a_in, a_out, relay, a_in)
    t2 = np.asarray(v2).reshape(b_out, relay, b_in, b_out, relay, b_in)
    r = np.einsum("xraXsA,urbUsB->xuabXUAB", t1, t2)
    n = a_out * b_out * a_in * b_in
    return r.reshape(n, n)


def ppt_min_eig(choi, d_out: int, d_in: int) -> float:
    """Least eigenvalue of the Choi transposed on its whole input factor."""
    t = np.asarray(choi).reshape(d_out, d_in, d_out, d_in).transpose(0, 3, 2, 1)
    n = d_out * d_in
    return float(np.linalg.eigvalsh(t.reshape(n, n))[0])


def nosignal_residual(choi, out_dims, in_dims, sender_out, sender_in) -> float:
    """max |Tr_{sender out}[R] - I_{sender in} (x) S| with S its normalised marginal.

    out_dims and in_dims list the subsystem dimensions; sender_out and
    sender_in are positions in those lists.
    """
    dims = list(out_dims) + list(in_dims)
    no, n = len(out_dims), len(dims)
    so = list(sender_out)
    ro = [i for i in range(no) if i not in so]
    si = [no + i for i in sender_in]
    ri = [i for i in range(no, n) if i not in si]
    half = so + ro + si + ri
    t = np.asarray(choi).reshape(dims + dims).transpose(half + [n + i for i in half])
    dso, dro, dsi, dri = (int(np.prod([dims[i] for i in g])) for g in (so, ro, si, ri))
    t = t.reshape(dso, dro, dsi, dri, dso, dro, dsi, dri)
    m = np.einsum("arstauvw->rstuvw", t)
    s = np.einsum("rstusw->rtuw", m) / dsi
    ideal = np.einsum("rtuw,sv->rstuvw", s, np.eye(dsi))
    return float(np.max(np.abs(m - ideal)))


def chsh(choi) -> float:
    """CHSH value of a channel with outputs (A, W_A, W_B, B) and inputs (A, B), all qubits.

    Correlator (n, m) is Tr[(Z_A (x) Z_B (x) |n><n| (x) |m><m|) R], read off
    the diagonal of R.
    """
    diag = np.real(np.diagonal(np.asarray(choi))).reshape(2, 2, 2, 2, 2, 2)
    z = np.array([1.0, -1.0])
    corr = np.einsum("a,b,awvbnm->nm", z, z, diag)
    return float(abs(corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1]))


def r_alpha_chsh(alpha: float) -> float:
    """Closed-form CHSH value |4 - 6 alpha| of R_alpha."""
    return abs(4.0 - 6.0 * alpha)
