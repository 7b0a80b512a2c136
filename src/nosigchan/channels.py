"""Channels as first-class values.

A channel is stored by its Choi operator in the unnormalized-|I>> convention:
R = (C x Id)(|I>><<I|), factor order (outputs, inputs), so Tr R = dim(in).
An instrument is a channel with one more, classical, output wire carrying
its outcome (`outcome_stack`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (
    SystemLayout,
    TensorError,
    as_matrix,
    eigh,
    eigvalsh,
    max_entangled_vec,
    ptrace,
)

CP_TOL = 1e-9
TP_TOL = 1e-9
KRAUS_CUTOFF = 1e-12

IN_TAG = "#in"
OUT_TAG = "#out"
_SEQ_WIRE = "#seq"


class ChannelError(ValueError):
    """Violated channel invariant or incompatible composition."""


def choi_layout(out_layout: SystemLayout, in_layout: SystemLayout) -> SystemLayout:
    """Layout of the Choi operator: tagged outputs followed by tagged inputs.

    Tags keep labels unique even when a wire keeps its name through the channel.
    """
    return out_layout.relabel(OUT_TAG).concat(in_layout.relabel(IN_TAG))


@dataclass(frozen=True)
class Channel:
    """A channel as (Choi matrix, input layout, output layout)."""

    choi: np.ndarray
    in_layout: SystemLayout
    out_layout: SystemLayout

    def __post_init__(self):
        c = as_matrix(self.choi)
        n = self.out_layout.total_dim * self.in_layout.total_dim
        if c.shape != (n, n):
            raise ChannelError(
                f"Choi shape {c.shape} does not match layouts (dim {n})"
            )
        if not np.all(np.isfinite(c)):
            raise ChannelError("Choi has non-finite entries")
        object.__setattr__(self, "choi", c)

    @property
    def d_in(self) -> int:
        return self.in_layout.total_dim

    @property
    def d_out(self) -> int:
        return self.out_layout.total_dim

    def validate(self) -> "Channel":
        """Check complete positivity and trace preservation; returns self."""
        try:
            w = eigvalsh(self.choi, tol=CP_TOL)
        except TensorError as exc:
            raise ChannelError(f"not completely positive: {exc}") from exc
        if w[-1] < -CP_TOL:
            raise ChannelError(
                f"not completely positive: min Choi eigenvalue {w[-1]:.3e}"
            )
        dev = tp_residual(self.choi, self.out_layout, self.in_layout)
        if dev > TP_TOL:
            raise ChannelError(f"not trace-preserving: residual {dev:.3e}")
        return self


def tp_residual(choi, out_layout: SystemLayout, in_layout: SystemLayout) -> float:
    """max|Tr_out[choi] - I_in|."""
    lay = choi_layout(out_layout, in_layout)
    marg = ptrace(choi, lay, lay.labels[: len(out_layout)])
    return float(np.max(np.abs(marg - np.eye(in_layout.total_dim))))


def channel_from_kraus(
    kraus: Sequence[np.ndarray],
    in_layout: SystemLayout,
    out_layout: SystemLayout,
) -> Channel:
    """Choi = sum_k |K_k>><<K_k| with |K>> the row-major flattening of K."""
    di, do = in_layout.total_dim, out_layout.total_dim
    if not kraus:
        raise ChannelError("empty Kraus set")
    comp = np.zeros((di, di), dtype=complex)
    choi = np.zeros((do * di, do * di), dtype=complex)
    for k in kraus:
        k = as_matrix(k)
        if k.shape != (do, di):
            raise ChannelError(f"Kraus shape {k.shape}, expected {(do, di)}")
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
        comp += k.conj().T @ k
    dev = np.max(np.abs(comp - np.eye(di)))
    if dev > TP_TOL:
        raise ChannelError(f"Kraus completeness violated: sum K†K off by {dev:.3e}")
    return Channel(choi, in_layout, out_layout)


def kraus_from_choi(c: Channel):
    """Spectral Kraus extraction: vectors sqrt(l_i)|v_i> reshaped to matrices."""
    w, v = eigh(c.choi)
    if w[-1] < -CP_TOL:
        raise ChannelError(f"Choi not CP: eigenvalue {w[-1]:.3e}")
    ks = []
    for lam, col in zip(w, v.T):
        if lam > KRAUS_CUTOFF:
            ks.append(np.sqrt(lam) * col.reshape(c.d_out, c.d_in))
    return ks


def identity_channel(lay: SystemLayout) -> Channel:
    d = lay.total_dim
    v = max_entangled_vec(d)
    return Channel(np.outer(v, v.conj()), lay, lay)


def unitary_channel(u, in_layout: SystemLayout, out_layout: SystemLayout = None) -> Channel:
    if out_layout is None:
        out_layout = in_layout
    return channel_from_kraus([u], in_layout, out_layout)


def link(first: Channel, second: Channel, over: Sequence[str]) -> Channel:
    """Link product: feed first's outputs named in `over` into second's inputs.

    R[c,a;c',a'] = sum_{b,b'} R1[b,a;b',a'] R2[c,b;c',b'] over the wired legs b
    (Chiribella, D'Ariano, Perinotti, PRA 80, 022339 (2009)).  Legs are matched
    by the names in `over` only; every other leg passes through.  Outputs are
    first's leftover outputs then second's; inputs are first's inputs then
    second's leftover inputs.  over=() is the parallel composition.
    """
    for l in over:
        if l not in first.out_layout.labels or l not in second.in_layout.labels:
            raise ChannelError(f"cannot link over {l!r}: not an output of first "
                               f"and an input of second")
        if first.out_layout.dim(l) != second.in_layout.dim(l):
            raise ChannelError(
                f"cannot link over {l!r}: dimension {first.out_layout.dim(l)} "
                f"vs {second.in_layout.dim(l)}"
            )
    out_layout = first.out_layout.drop(over).concat(second.out_layout)
    in_layout = first.in_layout.concat(second.in_layout.drop(over))

    # One (ket, bra) pair of einsum subscripts per leg; wired legs share theirs.
    ids = itertools.count()

    def fresh():
        return next(ids), next(ids)

    o1 = {l: fresh() for l in first.out_layout.labels}
    i1 = {l: fresh() for l in first.in_layout.labels}
    o2 = {l: fresh() for l in second.out_layout.labels}
    i2 = {l: o1[l] if l in over else fresh() for l in second.in_layout.labels}

    def subscripts(legs):
        return [k for k, _ in legs] + [b for _, b in legs]

    def operand(c, outs, ins):
        legs = [outs[l] for l in c.out_layout.labels] + [ins[l] for l in c.in_layout.labels]
        return c.choi.reshape(2 * (c.out_layout.dims + c.in_layout.dims)), subscripts(legs)

    result_legs = (
        [o1[l] for l in first.out_layout.labels if l not in over]
        + list(o2.values())
        + list(i1.values())
        + [i2[l] for l in second.in_layout.labels if l not in over]
    )
    choi = np.einsum(
        *operand(first, o1, i1), *operand(second, o2, i2), subscripts(result_legs),
        optimize=True,
    )
    n = out_layout.total_dim * in_layout.total_dim
    return Channel(choi.reshape(n, n), in_layout, out_layout)


def compose_seq(first: Channel, second: Channel) -> Channel:
    """Choi of (second o first); first's outputs feed second's inputs in order."""
    if first.d_out != second.d_in:
        raise ChannelError(
            f"cannot chain: first output dim {first.d_out} vs second input dim {second.d_in}"
        )
    wire = SystemLayout(((_SEQ_WIRE, first.d_out),))
    return link(
        Channel(first.choi, first.in_layout, wire),
        Channel(second.choi, wire, second.out_layout),
        [_SEQ_WIRE],
    )


def compose_par(a: Channel, b: Channel) -> Channel:
    """Choi of a (x) b, output layout a.out ++ b.out, input layout a.in ++ b.in."""
    return link(a, b, ())


def outcome_stack(chois: Sequence[np.ndarray], d_out: int, d_in: int) -> np.ndarray:
    """Choi R[o,x,i; o',x',i'] = delta_xx' B_x[o,i; o',i'] of the branches B_x.

    The classical wire x sits between the output and the input factors, so
    the same matrix is the instrument with outcome x as its last output and
    the family of maps B_x selected by a message x as its first input.
    Tracing x out sums the branches.
    """
    n, m = len(chois), d_out * d_in
    r = np.zeros((d_out, n, d_in, d_out, n, d_in), dtype=complex)
    for x, b in enumerate(chois):
        b = as_matrix(b)
        if b.shape != (m, m):
            raise ChannelError(f"branch {x} has shape {b.shape}, expected {(m, m)}")
        r[:, x, :, :, x, :] = b.reshape(d_out, d_in, d_out, d_in)
    return r.reshape(m * n, m * n)
