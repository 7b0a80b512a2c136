"""Directional no-signaling verdicts and constructive realization circuits.

A bipartite channel cannot signal from the sender side when tracing out the
sender's outputs leaves the Choi operator of the form I_sender_in (x) S, with
S the Choi of a channel on the receiver side alone.  The builders in this
module produce channels from local pieces plus a shared maximally entangled
ancilla pair, optionally with one round of classical communication.
"""
from __future__ import annotations

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
    permute_to,
    ptrace,
    shift_op,
)
from .channels import (
    CP_TOL,
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
# Trace-preservation slack for the channel `build_realization_cc` assembles.
REALIZATION_TP_TOL = 1e-8


@dataclass(frozen=True)
class SignalingVerdict:
    """Directional verdicts with the residuals that back them."""

    a_to_b: bool  # True: A cannot signal to B' (condition holds)
    b_to_a: bool
    residual_a: float
    residual_b: float
    tolerance: float


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
    subsets are empty.  Returns (deviation, S, S_layout).
    """
    in_subset = list(in_subset)
    out_subset = list(out_subset)
    for l in in_subset:
        in_layout.index(l)
    for l in out_subset:
        out_layout.index(l)
    if len(set(in_subset)) != len(in_subset) or len(set(out_subset)) != len(out_subset):
        raise TensorError("repeated labels in subset")
    full = choi_layout(out_layout, in_layout)
    traced = [l + OUT_TAG for l in out_subset]
    m = ptrace(choi, full, traced)
    rem = full.drop(traced)
    sender_tags = [l + IN_TAG for l in in_subset]
    front = sender_tags + [l for l in rem.labels if l not in set(sender_tags)]
    mp, play = permute_to(m, rem, front)
    ds = play.select(sender_tags).total_dim
    s = ptrace(mp, play, sender_tags) / ds
    return mp - kron(np.eye(ds), s), s, play.drop(sender_tags)


def check_nosignaling_dir(
    c: Channel,
    sender_in_labels: Sequence[str],
    sender_out_labels: Sequence[str],
    tol: float = NOSIGNAL_TOL,
):
    """Can the sender side signal to the rest?  Returns (no_signaling, residual).

    The residual is max|deviation| of Tr_{sender out}[choi] = I_{sender in} (x) S
    (see `_factorization_deviation`); the label lists may be any subsets.  When
    the factorization holds, the marginal S is additionally verified to be a
    well-formed channel Choi on the receiver side.
    """
    dev, s, s_lay = _factorization_deviation(
        c.choi, c.in_layout, c.out_layout, sender_in_labels, sender_out_labels
    )
    residual = float(np.max(np.abs(dev)))
    ok = residual <= tol
    if ok:
        n_out = sum(1 for l in s_lay.labels if l.endswith(OUT_TAG))
        out_lay = SystemLayout(s_lay.subsystems[:n_out])
        in_lay = SystemLayout(s_lay.subsystems[n_out:])
        w = eigvalsh(s, tol=MARGINAL_TOL)
        marg = ptrace(s, s_lay, out_lay.labels)
        tp_dev = np.max(np.abs(marg - np.eye(in_lay.total_dim)))
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
    tol: float = NOSIGNAL_TOL,
) -> SignalingVerdict:
    ok_a, res_a = check_nosignaling_dir(c, a_in_labels, a_out_labels, tol)
    ok_b, res_b = check_nosignaling_dir(c, b_in_labels, b_out_labels, tol)
    return SignalingVerdict(ok_a, ok_b, res_a, res_b, tol)


# ---------------------------------------------------------------------------
# Realization builders.
#
# Local pieces follow one convention: a piece acting on one party's side takes
# (party systems ..., ancilla subsystem) as input, ancilla LAST, and maps to
# that party's outputs.  A classical message is an outcome wire (see
# channels.outcome_stack): the sender's last output, the receiver's first input.


# Private wire labels, so that the pieces' own labels never collide with them.
_EA = "#E_A"
_EB = "#E_B"
_RELAY = "#relay"
_ES = "#E_sender"
_ER = "#E_receiver"
_MSG = "#message"


def _renamed(lay: SystemLayout, index: int, label: str) -> SystemLayout:
    """lay with the subsystem at position index renamed to label."""
    subs = list(lay.subsystems)
    subs[index] = (label, subs[index][1])
    return SystemLayout(tuple(subs))


def _rotated(lay: SystemLayout, k: int) -> SystemLayout:
    """lay with its first k subsystems moved to the end."""
    return SystemLayout(lay.subsystems[k:] + lay.subsystems[:k])


def build_localizable(g_a: Channel, g_b: Channel, d: int) -> Channel:
    """Local operations on both sides sharing a maximally entangled pair.

    g_a: (A systems ..., E_A) -> A outputs, g_b likewise; ancillas have
    dimension d and sit last in each input layout (link checks both).  The
    pieces need not be trace-preserving.  The joint input is (A systems ...,
    B systems ...) and the joint output (A outputs ..., B outputs ...).
    """
    if not len(g_a.in_layout) or not len(g_b.in_layout):
        raise ChannelError("local piece needs at least the ancilla input")
    phi = max_entangled_vec(d, normalized=True)
    pair = Channel(np.outer(phi, phi.conj()), SystemLayout(()),
                   SystemLayout(((_EA, d), (_EB, d))))
    a = Channel(g_a.choi, _renamed(g_a.in_layout, -1, _EA), g_a.out_layout)
    b = Channel(g_b.choi, _renamed(g_b.in_layout, -1, _EB), g_b.out_layout)
    return link(link(pair, a, [_EA]), b, [_EB])


def build_realization_cc(direction: str, sender: Channel, receiver: Channel) -> Channel:
    """One round of classical communication over a shared maximally entangled pair.

    direction "A_to_B": the sender is A's instrument (A systems ..., E_A) ->
    (A outputs ..., message) and the receiver is B's family of maps
    (message, B systems ..., E_B) -> B outputs, one per message value (see
    `channels.outcome_stack`); "B_to_A" swaps the parties.  The pair's
    dimension is the sender's ancilla dimension; link rejects a receiver whose
    ancilla or message dimension differs.  The result has A's wires first.
    """
    if direction not in ("A_to_B", "B_to_A"):
        raise ChannelError(f"unknown direction {direction!r}")
    if len(sender.out_layout) < 1 or len(sender.in_layout) < 1 or len(receiver.in_layout) < 2:
        raise ChannelError("sender needs the ancilla input and message output, "
                           "receiver the message and ancilla inputs")
    n = sender.out_layout.dims[-1]
    do, di = sender.d_out // n, sender.d_in
    blocks = sender.choi.reshape(do, n, di, do, n, di).transpose(1, 4, 0, 2, 3, 5)
    coherence = np.max(np.abs(blocks[~np.eye(n, dtype=bool)]), initial=0.0)
    if coherence > CP_TOL:
        raise ChannelError(f"sender's message wire is not classical: coherence {coherence:.3e}")
    d = sender.in_layout.dims[-1]
    phi = max_entangled_vec(d, normalized=True)
    pair = Channel(np.outer(phi, phi.conj()), SystemLayout(()),
                   SystemLayout(((_ES, d), (_ER, d))))
    snd = Channel(sender.choi, _renamed(sender.in_layout, -1, _ES),
                  _renamed(sender.out_layout, -1, _MSG))
    rcv = Channel(receiver.choi, _renamed(_renamed(receiver.in_layout, 0, _MSG), -1, _ER),
                  receiver.out_layout)
    out = link(link(pair, snd, [_ES]), rcv, [_ER, _MSG])
    if direction == "B_to_A":  # move the sender's (B's) wires behind A's
        out_lay = _rotated(out.out_layout, len(sender.out_layout) - 1)
        in_lay = _rotated(out.in_layout, len(sender.in_layout) - 1)
        choi, _ = permute_to(out.choi, choi_layout(out.out_layout, out.in_layout),
                             choi_layout(out_lay, in_lay).labels)
        out = Channel(choi, in_lay, out_lay)
    dev = tp_residual(out.choi, out.out_layout, out.in_layout)
    if dev > REALIZATION_TP_TOL:
        raise ChannelError(f"realization is not trace-preserving: residual {dev:.3e}")
    return out


def build_semilocalizable(v1: Channel, v2: Channel) -> Channel:
    """One-way quantum communication: v1 on A emits a relay system consumed by v2.

    v1: A -> (A outputs ..., relay), relay last; v2: (relay, B systems ...) -> B
    outputs, relay first.  The result cannot signal from B to the A outputs.
    """
    return link(
        Channel(v1.choi, v1.in_layout, _renamed(v1.out_layout, -1, _RELAY)),
        Channel(v2.choi, _renamed(v2.in_layout, 0, _RELAY), v2.out_layout),
        [_RELAY],
    )


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


def teleport_realization(v1: Channel, v2: Channel) -> Channel:
    """Replace the relay wire of a one-way realization by teleportation.

    The relay becomes a one-round classical-communication wire: Bell-measure
    it against half of a shared pair on the A side, send the outcome, and
    apply the matching X^p Z^q to the other half on the B side.  v1 feeds that
    wire and the wire feeds v2, so the result equals
    build_semilocalizable(v1, v2).
    """
    e = v1.out_layout.dims[-1]
    bells, cors = teleport_gadget(e)
    # Message x: the effect rho -> <B_x|rho|B_x> on (relay, E_A), then X^p Z^q
    # from E_B onto the relay.
    msg, eb, relay = layout((_MSG, e * e)), layout((_EB, e)), layout((_RELAY, e))
    sender = Channel(outcome_stack([np.outer(b.conj(), b) for b in bells], 1, e * e),
                     layout((_RELAY, e), (_EA, e)), msg)
    receiver = Channel(outcome_stack([unitary_channel(u, eb, relay).choi for u in cors], e, e),
                       msg.concat(eb), relay)
    wire = build_realization_cc("A_to_B", sender, receiver)
    v1_relay = Channel(v1.choi, v1.in_layout, _renamed(v1.out_layout, -1, _RELAY))
    return build_semilocalizable(link(v1_relay, wire, [_RELAY]), v2)
