"""The two-qubit-in, four-qubit-out counterexample channel family.

Six qubit wires: inputs A, B; a shared pair (1/sqrt 2)|I>> on X_A, X_B; a
pair sqrt(a)|00> + sqrt(1-a)|11> on W_A, W_B.  Both X wires are swapped
with the corresponding system wire conditionally on the W wires, measured,
and a sigma_x fires on one side iff both outcomes are 1.  Outputs are
grouped as A' = (A, W_A) and B' = (W_B, B).

The family is built two independent ways.  `kraus_operators` writes the
four Kraus operators in closed form, read off the circuit by hand.
The circuit route reads the circuit off its Choi state, the unnormalised
|I>><<I| on the inputs and a reference copy of them, tensored with the X
and W pairs.  The circuit's operator on that state's kets, split by the
outcome bra on (X_A, X_B) and followed by the sigma_x on outcome 11, is
one operator K_x per outcome, and branch x is K_x s K_x^dagger.  Every gate
is a 0/1 permutation and every outcome effect a basis bra, so each row of
K_x holds a single 1: the circuit only moves entries of the state, and
alpha changes the state, not where its entries go.  Where they go is read
off the K_x once per variant, as a flat index into the ancilla state; each
call then gathers the four branches from that state at alpha.  Each branch
is a Choi operator, so `build_r_alpha_circuit` sums them into the channel.
The two routes share only the layouts and the range check on alpha.  A
third route casts the family as a strict one-round classical-communication
realization over a maximally entangled dim-4 ancilla pair.
"""
from __future__ import annotations

import functools

import numpy as np

from .tensor import (
    SystemLayout,
    controlled_swap,
    embed,
    kron,
    layout,
    max_entangled_vec,
    pauli,
    regroup,
)
from .channels import (TP_TOL, Channel, ChannelError, channel_from_kraus, outcome_stack,
                       tp_residual)
from .nosignal import build_realization_cc

IN_LAYOUT = layout("A", "B")
OUT_LAYOUT = layout("A", "W_A", "W_B", "B")
# The classical outcome x = 2m + n of the two computational-basis measurements.
_OUTCOME = layout(("#outcome", 4))
# The reference copy of the inputs in the circuit's Choi state.
_REFERENCE = layout("A_in", "B_in")
# The circuit's six wires, and its Choi state: the reference copy first.
_WIRES = layout("A", "B", "X_A", "X_B", "W_A", "W_B")
_CHOI_STATE = _REFERENCE.concat(_WIRES)

VARIANT_SIGMA_ON_A = "sigma_on_A"
VARIANT_SIGMA_ON_B = "sigma_on_B"

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def pair_state_vec(alpha: float) -> np.ndarray:
    """sqrt(a)|00> + sqrt(1-a)|11> on the W pair."""
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(alpha)
    v[3] = np.sqrt(1.0 - alpha)
    return v


def _controlled_sigma_x() -> np.ndarray:
    """|1><1|_W (x) sigma_x + |0><0|_W (x) I on ordering (W wire, system wire)."""
    return kron(_P1, pauli("x")) + kron(_P0, np.eye(2))


def kraus_operators(alpha: float):
    """The four Kraus operators (16 x 4) of R_alpha, outcome order (m, n).

    On outputs (A, W_A, W_B, B) and inputs (A, B), with j + mn taken mod 2:

        K_mn = 2^{-1/2} [ delta_mn sqrt(a) sum_{a,b} |a,0,0,b><a,b|
                          + sqrt(1-a) sum_j |j + mn, 1, 1, j><m,n| ]

    Read off the circuit.  The W pair sqrt(a)|00> + sqrt(1-a)|11> picks the
    branch.  With W = 00 no swap fires: the X pair (1/sqrt 2) sum_j |jj> is
    measured, so m = n, and the inputs pass through to A and B.  With W = 11
    both swaps fire: the inputs move to X and are measured as (m, n), and A
    and B carry the X pair, with sigma_x on A iff m = n = 1.
    """
    alpha = _check_alpha(alpha)
    keep = np.sqrt(alpha) * (1 / np.sqrt(2))
    swap = np.sqrt(1.0 - alpha) * (1 / np.sqrt(2))
    a, b = np.divmod(np.arange(4), 2)  # input (a, b) has index 2a + b
    j = np.arange(2)
    ks = []
    for m in range(2):
        for n in range(2):
            k = np.zeros((16, 4), dtype=complex)
            if m == n:
                k[8 * a + b, 2 * a + b] = keep  # |a,0,0,b><a,b|
            k[8 * (j ^ (m * n)) + 6 + j, 2 * m + n] = swap  # |j + mn,1,1,j><m,n|
            ks.append(k)
    return ks


def build_r_alpha_kraus(alpha: float) -> Channel:
    """Choi operator from the closed-form Kraus vectors."""
    return channel_from_kraus(kraus_operators(alpha), IN_LAYOUT, OUT_LAYOUT)


@functools.cache
def _entry_map(variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Where the circuit moves the Choi-state entries: branch x is s[q[x]][:, q[x]].

    The circuit runs on the Choi state's kets (Choi, LAA 10, 285 (1975)):
    I_ref (x) u, u the two controlled swaps, with its ket legs regrouped as
    (X_A, X_B | OUT_LAYOUT | _REFERENCE), is four blocks, and block x, with
    the sigma_x after it when x = 3, is outcome x's operator K_x onto the
    branch's Choi.  The branch is K_x s K_x^dagger, so when every row of K_x
    holds a single 1 and 0s elsewhere, its entries are entries of s, moved:
    q[x] holds the column of each row's 1, shape (4, 64).  Any other K_x
    raises ChannelError.

    The state s is |I>><<I| on the reference copy, whose entries are 0 or 1,
    tensored with the 16 x 16 ancilla state.  So each branch entry is an
    ancilla entry or 0: `flat`, int32 of shape (4, 64, 64), holds its index
    in the raveled ancilla state, and 256, one past the end, where the
    reference factor is 0.  Returns (q, flat), both read-only.
    """
    cs = controlled_swap(2)
    u = embed(cs, ["W_A", "A", "X_A"], _WIRES) @ embed(cs, ["W_B", "B", "X_B"], _WIRES)
    rows = ("X_A", "X_B") + OUT_LAYOUT.labels + _REFERENCE.labels
    k = regroup(kron(np.eye(_REFERENCE.total_dim), u), _CHOI_STATE, [(l, 0) for l in rows],
                [(l, 1) for l in _CHOI_STATE.labels]).reshape(4, -1, _CHOI_STATE.total_dim)
    side = ["W_A", "A"] if variant == VARIANT_SIGMA_ON_A else ["W_B", "B"]
    k[3] = embed(_controlled_sigma_x(), side, OUT_LAYOUT.concat(_REFERENCE)) @ k[3]
    if not (np.all((k == 0) | (k == 1)) and np.all(np.count_nonzero(k, axis=2) == 1)):
        raise ChannelError(f"circuit variant {variant!r} does not just move Choi-state entries")
    q = np.argmax(k, axis=2)
    # entry (p, p') of the state is ref[hi] ref[hi'] ancillas[lo, lo'], n the ancillas' side
    ref = max_entangled_vec(IN_LAYOUT.total_dim) != 0
    n = _CHOI_STATE.total_dim // ref.size
    hi, lo = np.divmod(q, n)
    on = ref[hi]
    flat = np.where(on[:, :, None] & on[:, None, :], lo[:, :, None] * n + lo[:, None, :],
                    n * n).astype(np.int32)
    for a in (q, flat):
        a.flags.writeable = False
    return q, flat


def _branches(alpha: float, variant: str) -> np.ndarray:
    """The circuit's four branch Chois, shape (4, 64, 64), outcome x = 2m + n,
    gathered from its Choi state at alpha where `_entry_map` says.  Entries are
    moved, never summed, so each is exactly an entry of the state."""
    alpha = _check_alpha(alpha)
    if variant not in (VARIANT_SIGMA_ON_A, VARIANT_SIGMA_ON_B):
        raise ValueError(f"unknown variant {variant!r}")
    _, flat = _entry_map(variant)
    phi2 = max_entangled_vec(2, normalized=True)
    psi = pair_state_vec(alpha)
    ancillas = kron(np.outer(phi2, phi2.conj()), np.outer(psi, psi.conj()))
    return np.append(ancillas.ravel(), 0)[flat]


def build_r_alpha_circuit(alpha: float, variant: str = VARIANT_SIGMA_ON_A) -> Channel:
    """Choi operator of the circuit: the sum of its branches, in outcome order."""
    c = Channel(_branches(alpha, variant).sum(axis=0), IN_LAYOUT, OUT_LAYOUT)
    dev = tp_residual(c.choi, c.out_layout, c.in_layout)
    if dev > TP_TOL:
        raise ChannelError(f"circuit branches do not sum to TP: residual {dev:.3e}")
    return c


def _nielsen_filters(alpha: float):
    """Two-outcome local filtering turning (1/sqrt 2)|I>> into the W pair.

    Measuring M_k on one half of the maximally entangled pair yields the
    target pair state, up to a sigma_x on the opposite half for outcome 1.
    """
    m0 = np.diag([np.sqrt(alpha), np.sqrt(1.0 - alpha)]).astype(complex)
    m1 = np.array(
        [[0.0, np.sqrt(alpha)], [np.sqrt(1.0 - alpha), 0.0]], dtype=complex
    )
    return m0, m1


# Party p's pieces take (p, E_p), E_p = (X_p, W_p) its ancilla half, to its outputs.
_PIECE_IN = {p: SystemLayout(((p, 2), ("E_" + p, 4))) for p in "AB"}
_PIECE_OUT = {"A": layout("A", "W_A"), "B": layout("W_B", "B")}  # A' and B'


@functools.cache
def _gates(p: str, fire: bool) -> np.ndarray:
    """Party p's gate product on (p, X_p, W_p), read-only: the controlled swap,
    then, if `fire`, sigma_x on p iff X_p and W_p are both 1.  It does not
    depend on alpha, so it is built once per (party, fire) and process."""
    x, w = "X_" + p, "W_" + p
    lay = layout(p, x, w)
    g = embed(controlled_swap(2), [w, p, x], lay)
    if fire:
        g = embed(kron(_P0, np.eye(4)) + kron(_P1, _controlled_sigma_x()), [x, w, p], lay) @ g
    g.flags.writeable = False
    return g


def _branch_kraus(p: str, prod: np.ndarray) -> np.ndarray:
    """Kraus vectors of p's pieces from gate products prod[n, (p, X_p, W_p), (p, E_p)]:
    X_p is read off the rows, so piece n has one vector per X_p outcome e.
    Returns v[n, e] on (p's outputs, p's inputs)."""
    k = prod.reshape(-1, 2, 2, 2, 8)  # axes (n, p, e, W_p, inputs)
    k = k.transpose(0, 2, 1, 3, 4) if p == "A" else k.transpose(0, 2, 3, 1, 4)
    return k.reshape(-1, 2, 32)


@functools.cache
def _receiver(p: str) -> Channel:
    """Party p's correction family (outcome, p, E_p) -> p's outputs, read-only.

    Outcome (m, k): undo filter outcome k with sigma_x^k on W_p, then p's
    gates, firing sigma_x on p iff m = 1 and X_p, W_p are both 1, and X_p
    discarded.  It does not depend on alpha, so it is built once per party
    and process.
    """
    undo = kron(np.eye(4), np.stack([pauli("i"), pauli("x")]))
    v = _branch_kraus(p, np.concatenate([_gates(p, m == 1) @ undo for m in range(2)]))
    receiver = Channel(outcome_stack(v.transpose(0, 2, 1) @ v.conj(), 4, 8),
                       _OUTCOME.concat(_PIECE_IN[p]), _PIECE_OUT[p])
    receiver.choi.flags.writeable = False
    return receiver


def realization_spec(alpha: float, direction: str = "B_to_A") -> tuple[Channel, Channel]:
    """Strict one-round classical-communication form over a (1/2)|I>> pair.

    Returns (sender, receiver) for `build_realization_cc`.  The dim-4 ancilla
    halves are (X, W) qubit pairs.  The sender filters its W half so the
    shared W pair ends up in the circuit's non-maximally entangled state,
    then runs its half of the circuit and sends the outcome (measured bit,
    filter outcome); the receiver applies the filtering correction and its
    half, firing sigma_x iff both computational outcomes were 1.  Direction
    "B_to_A" puts the sigma_x on the A side (the original circuit); "A_to_B"
    is the mirrored variant.  The sender's four branches are one Kraus
    operator each, read off one batched product of its cached gates with
    the two filters.  The receiver does not depend on alpha: it is built
    once per direction and process, shared between calls, and its Choi is
    read-only.
    """
    alpha = _check_alpha(alpha)
    if direction not in ("A_to_B", "B_to_A"):
        raise ValueError(f"unknown direction {direction!r}")
    snd, rcv = ("B", "A") if direction == "B_to_A" else ("A", "B")
    prod = _gates(snd, False) @ kron(np.eye(4), np.stack(_nielsen_filters(alpha)))
    v = _branch_kraus(snd, prod).transpose(1, 0, 2).reshape(4, 32)  # branch x = 2m + k
    sender = Channel(outcome_stack(v[:, :, None] * v[:, None, :].conj(), 4, 8),
                     _PIECE_IN[snd], _PIECE_OUT[snd].concat(_OUTCOME))
    return sender, _receiver(rcv)


def build_r_alpha_realization(alpha: float, direction: str = "B_to_A") -> Channel:
    """The channel rebuilt through build_realization_cc; equals the other routes.

    Either direction gives the output order (A, W_A) ++ (W_B, B).
    """
    return build_realization_cc(direction, *realization_spec(alpha, direction))
