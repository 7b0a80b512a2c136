"""Channels as first-class values.

A channel is stored by its Choi operator in the unnormalized-|I>> convention:
R = (C x Id)(|I>><<I|), factor order (outputs, inputs), so Tr R = dim(in).
An instrument is a channel with one more, classical, output wire carrying
its outcome (`outcome_stack`).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (
    SystemLayout,
    TensorError,
    as_matrix,
    eigh,
    eigvalsh,
    ptrace,
    regroup,
)

CP_TOL = 1e-9
TP_TOL = 1e-9
KRAUS_CUTOFF = 1e-12

IN_TAG = "#in"
OUT_TAG = "#out"


class ChannelError(ValueError):
    """Violated channel invariant or incompatible composition."""


@functools.cache
def choi_layout(out_layout: SystemLayout, in_layout: SystemLayout) -> SystemLayout:
    """Layout of the Choi operator: tagged outputs followed by tagged inputs.

    Tags keep labels unique even when a wire keeps its name through the channel.
    Layouts are frozen, so it is worked out once per pair and shared.
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
            w = eigvalsh(self.choi)
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
    if len(kraus) == 0:
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
    keep = w > KRAUS_CUTOFF
    return list((np.sqrt(w[keep]) * v[:, keep]).T.reshape(-1, c.d_out, c.d_in))


def unitary_channel(u, in_layout: SystemLayout, out_layout: SystemLayout = None) -> Channel:
    if out_layout is None:
        out_layout = in_layout
    return channel_from_kraus([u], in_layout, out_layout)


@functools.cache
def _link_plan(out1: SystemLayout, in1: SystemLayout, out2: SystemLayout,
               in2: SystemLayout, over: tuple):
    """How `link` regroups its operands, worked out once per key: the tagged
    Choi layouts and the legs that put first's wired legs last and second's
    first, the kept legs' layout, and the result's layouts and legs.  `over`
    holds (output of first, input of second) pairs."""
    outs, ins = [o for o, _ in over], [i for _, i in over]
    for o, i in over:
        if o not in out1.labels or i not in in2.labels:
            raise ChannelError(f"cannot link {o!r} into {i!r}: not an output of first "
                               f"and an input of second")
        if out1.dim(o) != in2.dim(i):
            raise ChannelError(f"cannot link {o!r} into {i!r}: dimension {out1.dim(o)} vs {in2.dim(i)}")
        for l, wired in ((o, outs), (i, ins)):
            if wired.count(l) > 1:
                raise ChannelError(f"cannot link {l!r} twice")
    out_layout = out1.drop(outs).concat(out2)
    in_layout = in1.concat(in2.drop(ins))
    lay1, lay2 = choi_layout(out1, in1), choi_layout(out2, in2)
    wired1, wired2 = [o + OUT_TAG for o in outs], [i + IN_TAG for i in ins]
    keep1, keep2 = lay1.drop(wired1), lay2.drop(wired2)
    result = out_layout.relabel(OUT_TAG).labels + in_layout.relabel(IN_TAG).labels

    def legs(labels, sides=(0, 1)):  # ket legs, then bra legs
        return tuple((l, s) for s in sides for l in labels)

    return ((lay1, legs(keep1.labels), legs(wired1)), (lay2, legs(wired2), legs(keep2.labels)),
            (keep1.total_dim, keep2.total_dim),
            (keep1.concat(keep2), legs(result, (0,)), legs(result, (1,))), (in_layout, out_layout))


def link(first: Channel, second: Channel, over: Sequence) -> Channel:
    """Link product: feed first's outputs named in `over` into second's inputs.

    R[c,a;c',a'] = sum_{b,b'} R1[b,a;b',a'] R2[c,b;c',b'] over the wired legs b
    (Chiribella, D'Ariano, Perinotti, PRA 80, 022339 (2009)).  Each entry of
    `over` is an (output of first, input of second) tuple or a label l, which
    means (l, l).  Only named legs are wired.  Outputs are first's
    leftover outputs then second's; inputs are first's inputs then second's
    leftover inputs.  over=() is the parallel composition.
    """
    if isinstance(over, str):
        raise ChannelError(f"over must be a sequence of wires, not the string {over!r}")
    pairs = tuple((w, w) if isinstance(w, str) else w for w in over)
    for p in pairs:
        if not (isinstance(p, tuple) and len(p) == 2 and all(isinstance(l, str) for l in p)):
            raise ChannelError(f"cannot link over {p!r}: not a label or an (output, input) pair")
    one, two, (a, b), three, (in_layout, out_layout) = _link_plan(
        first.out_layout, first.in_layout, second.out_layout, second.in_layout, pairs)
    # (kept1 ket, kept1 bra | kept2 ket, kept2 bra), summed over the wired legs
    m = regroup(first.choi, *one) @ regroup(second.choi, *two)
    m = m.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(a * b, a * b)
    return Channel(regroup(m, *three), in_layout, out_layout)


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
