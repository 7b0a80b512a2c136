"""Directional no-signaling verdicts and constructive realization circuits.

A bipartite channel cannot signal from the sender side when tracing out the
sender's outputs leaves the Choi operator of the form I_sender_in (x) S, with
S the Choi of a channel on the receiver side alone.  The builders in this
module produce channels from local pieces plus a shared maximally entangled
ancilla pair, optionally with one round of classical communication.

A verdict's split of the Choi's legs and the shared pair's leg move depend on
layouts and labels alone, so each is worked out once per key, as `link`'s is.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (
    SystemLayout,
    TensorError,
    clock_op,
    eigvalsh,
    kron,
    layout,
    max_entangled_vec,
    regroup,
    shift_op,
)
from .channels import (
    CP_TOL,
    TP_TOL,
    Channel,
    ChannelError,
    IN_TAG,
    OUT_TAG,
    choi_layout,
    link,
    outcome_stack,
    tp_residual,
    unitary_channel,
)

NOSIGNAL_TOL = 1e-9
# Hermiticity, positivity and trace-preservation slack for the receiver-side
# marginal that `check_nosignaling_dir` extracts once the factorization holds.
MARGINAL_TOL = 1e-7


@dataclass(frozen=True)
class SignalingVerdict:
    """Directional verdicts with the residuals that back them."""

    a_to_b: bool  # True: A cannot signal to B' (condition holds)
    b_to_a: bool
    residual_a: float
    residual_b: float
    tolerance: float


def _deviation(m: np.ndarray):
    """(m - I_s (x) S, S) with S = Tr_s m / d_s, for m[..., s, a, s', b]: the
    no-signaling deviation, sender inputs s first, of the verdict and the face."""
    ds = m.shape[-4]
    s = np.trace(m, axis1=-4, axis2=-2) / ds
    dev = m.copy()
    for k in range(ds):
        dev[..., k, :, k, :] -= s
    return dev, s


@functools.cache
def _verdict_plan(in_layout: SystemLayout, out_layout: SystemLayout, in_subset: tuple,
                  out_subset: tuple):
    """How a Choi on the layouts splits for a sender, once per key: the Choi layout
    and legs, sender inputs first, the rest in layout order, sender outputs traced;
    the sender's and rest's dimensions; the marginal's output and input layouts;
    the traced, sender and rest labels.  An unknown or repeated label raises."""
    full = choi_layout(out_layout, in_layout)
    traced = full.select(l + OUT_TAG for l in out_subset).labels
    sender = full.select(l + IN_TAG for l in in_subset)
    rest = full.drop(traced + sender.labels)
    front = sender.labels + rest.labels
    return ((full, tuple((l, 0) for l in front), tuple((l, 1) for l in front)),
            (sender.total_dim, rest.total_dim),
            (out_layout.drop(out_subset), in_layout.drop(in_subset)),
            (traced, sender.labels, rest.labels))


def _factorization_deviation(
    choi: np.ndarray,
    in_layout: SystemLayout,
    out_layout: SystemLayout,
    in_subset: Sequence[str],
    out_subset: Sequence[str],
):
    """Deviation Tr_{out_subset}[choi] - I_{in_subset} (x) S, linear in choi.

    S = Tr_{in_subset}[..]/dim(in_subset) is the unique factorization
    candidate.  The deviation has the in_subset factors first; it vanishes
    exactly when the sender side cannot signal, and identically when both
    subsets are empty.  Returns (deviation, S, S's output and input layouts).
    """
    legs, (ds, dr), marginal, _ = _verdict_plan(in_layout, out_layout, tuple(in_subset),
                                                tuple(out_subset))
    m = regroup(choi, *legs)
    dev, s = _deviation(m.reshape(ds, dr, ds, dr))
    return (dev.reshape(m.shape), s) + marginal


def check_nosignaling_dir(
    c: Channel,
    sender_in_labels: Sequence[str],
    sender_out_labels: Sequence[str],
):
    """Can the sender side signal to the rest?  Returns (no_signaling, residual).

    The residual is max|deviation| of Tr_{sender out}[choi] = I_{sender in} (x) S
    (see `_factorization_deviation`); the label lists may be any subsets.  When
    the factorization holds, the marginal S is additionally verified to be a
    well-formed channel Choi on the receiver side.
    """
    dev, s, s_out, s_in = _factorization_deviation(
        c.choi, c.in_layout, c.out_layout, sender_in_labels, sender_out_labels
    )
    residual = float(np.max(np.abs(dev)))
    ok = residual <= NOSIGNAL_TOL
    if ok:
        w = eigvalsh(s, tol=MARGINAL_TOL)
        tp_dev = tp_residual(s, s_out, s_in)
        if w[-1] < -MARGINAL_TOL or tp_dev > MARGINAL_TOL:
            raise ChannelError(
                f"marginal passed the factorization test but is not a channel "
                f"(min eig {w[-1]:.3e}, TP residual {tp_dev:.3e})"
            )
    return ok, residual


def signaling_verdict(
    c: Channel,
    a_in_labels: Sequence[str],
    a_out_labels: Sequence[str],
    b_in_labels: Sequence[str],
    b_out_labels: Sequence[str],
) -> SignalingVerdict:
    ok_a, res_a = check_nosignaling_dir(c, a_in_labels, a_out_labels)
    ok_b, res_b = check_nosignaling_dir(c, b_in_labels, b_out_labels)
    return SignalingVerdict(ok_a, ok_b, res_a, res_b, NOSIGNAL_TOL)


# ---------------------------------------------------------------------------
# Realization builders.
#
# Local pieces follow one convention: a piece acting on one party's side takes
# (party systems ..., ancilla subsystem) as input, ancilla LAST, and maps to
# that party's outputs.  A classical message is an outcome wire (see
# channels.outcome_stack): the sender's last output, the receiver's first input.


# Private labels of wires a builder puts beside a piece's own, so they never collide.
_EB = "#E_B"
_RELAY = "#relay"
_ER = "#E_receiver"


@functools.cache
def _rotated(lay: SystemLayout, k: int) -> SystemLayout:
    """lay with its first k subsystems moved to the end, once per key."""
    return SystemLayout(lay.subsystems[k:] + lay.subsystems[:k])


@functools.cache
def _pair_plan(in_layout: SystemLayout, out_layout: SystemLayout, label: str):
    """`_fed_by_pair`'s leg move, once per key: the Choi layout and legs, last input
    first, the pair's dimension d, and the result's input and output layouts."""
    lay = choi_layout(out_layout, in_layout)
    legs, d = lay.labels[-1:] + lay.labels[:-1], in_layout.dims[-1]
    return ((lay, tuple((l, 0) for l in legs), tuple((l, 1) for l in legs)), d,
            SystemLayout(in_layout.subsystems[:-1]),
            SystemLayout(((label, d),) + out_layout.subsystems))


def _fed_by_pair(g: Channel, label: str) -> Channel:
    """link(pair, g, [g's last input]), pair the state (1/sqrt d)|I>> on that input and label.

    Linking the maximally entangled pair is a leg move: g's last input becomes
    its first output, named label, and the Choi is divided by d,
    R[(e,c),a;(e',c'),a'] = R_g[c,(a,e);c',(a',e')] / d.
    """
    legs, d, in_layout, out_layout = _pair_plan(g.in_layout, g.out_layout, label)
    return Channel(regroup(g.choi, *legs) / d, in_layout, out_layout)


def build_localizable(g_a: Channel, g_b: Channel, d: int) -> Channel:
    """Local operations on both sides sharing a maximally entangled pair.

    g_a: (A systems ..., E_A) -> A outputs, g_b likewise; ancillas have
    dimension d and sit last in each input layout (g_a's is checked here,
    g_b's by link).  The pieces need not be trace-preserving.  The joint input
    is (A systems ..., B systems ...) and the joint output (A outputs ...,
    B outputs ...).  The pair enters g_a as a leg move (`_fed_by_pair`), so
    one link wires its other half into g_b's last input.
    """
    if not len(g_a.in_layout) or not len(g_b.in_layout):
        raise ChannelError("local piece needs at least the ancilla input")
    if g_a.in_layout.dims[-1] != d:
        raise ChannelError(f"g_a's ancilla has dimension {g_a.in_layout.dims[-1]}, not d = {d}")
    return link(_fed_by_pair(g_a, _EB), g_b, [(_EB, g_b.in_layout.labels[-1])])


def build_realization_cc(direction: str, sender: Channel, receiver: Channel) -> Channel:
    """One round of classical communication over a shared maximally entangled pair.

    direction "A_to_B": the sender is A's instrument (A systems ..., E_A) ->
    (A outputs ..., message) and the receiver is B's family of maps
    (message, B systems ..., E_B) -> B outputs, one per message value (see
    `channels.outcome_stack`); "B_to_A" swaps the parties.  The pair, of the
    sender's ancilla dimension, enters the sender as a leg move (`_fed_by_pair`).
    One link wires its other half into the receiver's last input and the
    sender's last output into the receiver's first, and rejects a receiver
    whose ancilla or message dimension differs.  A's wires come first.
    """
    if direction not in ("A_to_B", "B_to_A"):
        raise ChannelError(f"unknown direction {direction!r}")
    if len(sender.out_layout) < 1 or len(sender.in_layout) < 1 or len(receiver.in_layout) < 2:
        raise ChannelError("sender needs the ancilla input and message output, "
                           "receiver the message and ancilla inputs")
    n, lay = sender.out_layout.dims[-1], choi_layout(sender.out_layout, sender.in_layout)
    msg = lay.labels[len(sender.out_layout) - 1]
    rest = [l for l in lay.labels if l != msg]  # row (x, x'): the block of message x, x'
    blocks = regroup(sender.choi, lay, [(msg, 0), (msg, 1)], [(l, s) for s in (0, 1) for l in rest])
    coherence = np.max(np.abs(blocks[~np.eye(n, dtype=bool).reshape(-1)]), initial=0.0)
    if coherence > CP_TOL:
        raise ChannelError(f"sender's message wire is not classical: coherence {coherence:.3e}")
    rcv = receiver.in_layout.labels
    out = link(_fed_by_pair(sender, _ER), receiver,
               [(_ER, rcv[-1]), (sender.out_layout.labels[-1], rcv[0])])
    if direction == "B_to_A":  # move the sender's (B's) wires behind A's
        out_lay = _rotated(out.out_layout, len(sender.out_layout) - 1)
        in_lay = _rotated(out.in_layout, len(sender.in_layout) - 1)
        legs = choi_layout(out_lay, in_lay).labels
        out = Channel(regroup(out.choi, choi_layout(out.out_layout, out.in_layout),
                              [(l, 0) for l in legs], [(l, 1) for l in legs]), in_lay, out_lay)
    dev = tp_residual(out.choi, out.out_layout, out.in_layout)
    if dev > TP_TOL:
        raise ChannelError(f"realization is not trace-preserving: residual {dev:.3e}")
    return out


def _check_relay(v1: Channel, v2: Channel) -> None:
    if not len(v1.out_layout):
        raise ChannelError("v1 needs the relay wire as its last output")
    if not len(v2.in_layout):
        raise ChannelError("v2 needs the relay wire as its first input")


def build_semilocalizable(v1: Channel, v2: Channel) -> Channel:
    """One-way quantum communication: v1 on A emits a relay system consumed by v2.

    v1: A -> (A outputs ..., relay), relay last; v2: (relay, B systems ...) -> B
    outputs, relay first.  One link wires v1's last output into v2's first
    input.  The result cannot signal from B to the A outputs.
    """
    _check_relay(v1, v2)
    return link(v1, v2, [(v1.out_layout.labels[-1], v2.in_layout.labels[0])])


def teleport_gadget(d: int):
    """Generalized Bell basis and the matching correction unitaries.

    Bell vectors |B_pq> = (1/sqrt d)(X^p Z^q (x) I)|I>> with X the cyclic
    shift and Z the clock operator; outcome index x = p*d + q.  The
    correction X^p Z^q undoes the (X^p Z^q)† picked up by the teleported
    system, so the full circuit is the identity channel.
    """
    if d < 2:
        raise TensorError(f"teleportation needs d >= 2, got {d}")
    x_op = shift_op(d)
    z_op = clock_op(d)
    phi = max_entangled_vec(d, normalized=True)
    bells = []
    corrections = []
    for p in range(d):
        xp = np.linalg.matrix_power(x_op, p)
        for q in range(d):
            w = xp @ np.linalg.matrix_power(z_op, q)
            bells.append(kron(w, np.eye(d)) @ phi)
            corrections.append(w)
    return bells, corrections


@functools.cache
def _teleport_wire(e: int) -> Channel:
    """The teleportation wire relay -> relay at relay dimension e, read-only.

    Message x: the effect rho -> <B_x|rho|B_x> on (relay, E_A), then X^p Z^q
    from E_B onto the relay.  It depends on e alone, so it is built once per
    relay dimension and process and shared by every caller.
    """
    bells, cors = teleport_gadget(e)
    msg, eb, relay = layout(("message", e * e)), layout(("E_B", e)), layout((_RELAY, e))
    sender = Channel(outcome_stack([np.outer(b.conj(), b) for b in bells], 1, e * e),
                     layout((_RELAY, e), ("E_A", e)), msg)
    receiver = Channel(outcome_stack([unitary_channel(u, eb, relay).choi for u in cors], e, e),
                       msg.concat(eb), relay)
    wire = build_realization_cc("A_to_B", sender, receiver)
    wire.choi.flags.writeable = False
    return wire


def teleport_realization(v1: Channel, v2: Channel) -> Channel:
    """Replace the relay wire of a one-way realization by teleportation.

    The relay becomes a one-round classical-communication wire: Bell-measure
    it against half of a shared pair on the A side, send the outcome, and
    apply the matching X^p Z^q to the other half on the B side.  One link
    wires v1's last output into that wire and `build_semilocalizable` wires
    the wire into v2's first input, so the result equals
    build_semilocalizable(v1, v2).  The wire depends only on the relay
    dimension, so it is built once per dimension and process; the cached
    wire is shared between calls and its Choi is read-only.
    """
    _check_relay(v1, v2)
    wire = _teleport_wire(v1.out_layout.dims[-1])
    return build_semilocalizable(link(v1, wire, [(v1.out_layout.labels[-1], _RELAY)]), v2)
