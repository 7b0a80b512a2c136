"""The two-qubit-in, four-qubit-out counterexample channel family.

Six qubit wires: inputs A, B; a shared pair (1/sqrt 2)|I>> on X_A, X_B; a
pair sqrt(a)|00> + sqrt(1-a)|11> on W_A, W_B.  Both X wires are swapped
with the corresponding system wire conditionally on the W wires, measured,
and a sigma_x fires on one side iff both outcomes are 1.  Outputs are
grouped as A' = (A, W_A) and B' = (W_B, B).

The family is built two independent ways.  `kraus_operators` writes the
four Kraus operators in closed form, read off the circuit by hand.
`circuit_instrument` reads the circuit off its Choi state, the unnormalised
|I>><<I| on the inputs and a reference copy of them, tensored with the X
and W pairs.  Every gate is a 0/1 permutation and every outcome effect a
basis bra, so the circuit only moves entries of that state; alpha changes
the state, not where its entries go.  One density-matrix simulation per
variant, on a state of distinct labels, finds where each entry goes: the
two controlled swaps act once, each outcome effect on (X_A, X_B) once, and
the sigma_x once, on outcome 11.  Each call then gathers the four branches
from the state at alpha.  The two routes share only the layouts and the
range check on alpha.  A third route casts the family as a strict one-round
classical-communication realization over a maximally entangled dim-4
ancilla pair.
"""
from __future__ import annotations

import functools

import numpy as np

from .tensor import (
    SystemLayout,
    bra_sandwich,
    controlled_swap,
    embed,
    kron,
    layout,
    max_entangled_vec,
    pauli,
    permute_to,
    ptrace,
)
from .channels import (OUT_TAG, TP_TOL, Channel, ChannelError, channel_from_kraus, choi_layout,
                       link, outcome_stack, tp_residual)
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


def _simulate(state: np.ndarray, variant: str) -> np.ndarray:
    """The circuit run on a state of _CHOI_STATE: its four branches, outcome x = 2m + n.

    The reference comes first, so the circuit acts on the trailing factor.
    Removing X with each outcome effect leaves the branch's Choi operator
    (Choi, LAA 10, 285 (1975)), on (OUT_LAYOUT | _REFERENCE).
    """
    lay = _CHOI_STATE
    # s -> (I (x) u) s (I (x) u)^dagger, with u acting on the trailing _WIRES factor
    cs = controlled_swap(2)
    u = embed(cs, ["W_A", "A", "X_A"], _WIRES) @ embed(cs, ["W_B", "B", "X_B"], _WIRES)
    n, d = lay.total_dim, _WIRES.total_dim
    s = np.matmul(u, state.reshape(-1, d, n))
    s = (s.reshape(-1, d) @ u.conj().T).reshape(n, n)

    # X first, so each outcome effect below reads its block in place
    rest = lay.drop(["X_A", "X_B"])
    s, lay = permute_to(s, lay, ("X_A", "X_B") + rest.labels)
    if variant == VARIANT_SIGMA_ON_A:
        sigma = embed(_controlled_sigma_x(), ["W_A", "A"], rest)
    else:
        sigma = embed(_controlled_sigma_x(), ["W_B", "B"], rest)
    branches = []
    for x, bra in enumerate(np.eye(4, dtype=complex)):
        b = bra_sandwich(s, lay, ["X_A", "X_B"], bra)
        if x == 3:  # m = n = 1 fires the sigma_x
            b = sigma @ b @ sigma.conj().T
        b, _ = permute_to(b, rest, OUT_LAYOUT.labels + _REFERENCE.labels)
        branches.append(b)
    return np.array(branches)


@functools.cache
def _entry_map(variant: str) -> np.ndarray:
    """Where the circuit moves the Choi-state entries: branch x is s[q[x]][:, q[x]].

    Every gate is a 0/1 permutation and every outcome effect a basis bra, so
    the circuit only moves entries, and the same permutation acts on rows
    and columns.  One simulation on the state whose entry (i, j) holds the
    label i n + j (n = 256, so every label is an exact float) finds q, shape
    (4, 64), from the branch diagonals, which hold q n + q.  The whole
    labelled output must equal that gather, or ChannelError is raised.
    """
    n = _CHOI_STATE.total_dim
    labels = np.arange(n * n, dtype=complex).reshape(n, n)
    out = _simulate(labels, variant)
    q = np.diagonal(out, axis1=1, axis2=2).real / (n + 1)
    idx = q.astype(np.intp) if np.all((q == np.round(q)) & (q >= 0) & (q < n)) else None
    if idx is None or not np.array_equal(out, labels[idx[:, :, None], idx[:, None, :]]):
        raise ChannelError(f"circuit variant {variant!r} does not just move Choi-state entries")
    idx.flags.writeable = False
    return idx


def circuit_instrument(alpha: float, variant: str = VARIANT_SIGMA_ON_A) -> Channel:
    """The measurement circuit as an instrument: outcome x = 2m + n on the last output.

    The circuit's Choi state is the unnormalised |I>><<I| on a reference copy
    (A_in, B_in) of the inputs and (A, B), tensored with the X and W pairs.
    One labelled simulation per variant (`_entry_map`) finds where the
    circuit moves its entries; each call then gathers the four branch Chois
    from the state.  Entries are moved, never summed, so they equal the
    simulation's exactly.
    """
    alpha = _check_alpha(alpha)
    if variant not in (VARIANT_SIGMA_ON_A, VARIANT_SIGMA_ON_B):
        raise ValueError(f"unknown variant {variant!r}")
    q = _entry_map(variant)
    phi2 = max_entangled_vec(2, normalized=True)
    psi = pair_state_vec(alpha)
    ancillas = kron(np.outer(phi2, phi2.conj()), np.outer(psi, psi.conj()))
    ref = max_entangled_vec(IN_LAYOUT.total_dim)
    # entry (p, p') of the state kron(|I>><<I|, ancillas), read off the factors
    hi, lo = np.divmod(q, ancillas.shape[0])
    branches = (np.outer(ref, ref.conj())[hi[:, :, None], hi[:, None, :]]
                * ancillas[lo[:, :, None], lo[:, None, :]])
    return Channel(outcome_stack(branches, OUT_LAYOUT.total_dim, IN_LAYOUT.total_dim),
                   IN_LAYOUT, OUT_LAYOUT.concat(_OUTCOME))


def build_r_alpha_circuit(alpha: float, variant: str = VARIANT_SIGMA_ON_A) -> Channel:
    """Choi operator of the circuit: its instrument with the outcome traced out."""
    ins = circuit_instrument(alpha, variant)
    lay = choi_layout(ins.out_layout, ins.in_layout)
    c = Channel(ptrace(ins.choi, lay, [_OUTCOME.labels[0] + OUT_TAG]), IN_LAYOUT, OUT_LAYOUT)
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


def _cp_map(kraus, in_layout: SystemLayout, out_layout: SystemLayout) -> Channel:
    """Choi of rho -> sum_k K rho K†, with no trace-preservation check."""
    vs = np.array([np.asarray(k, dtype=complex).reshape(-1) for k in kraus])
    return Channel(vs.T @ vs.conj(), in_layout, out_layout)


def realization_spec(alpha: float, direction: str = "B_to_A") -> tuple[Channel, Channel]:
    """Strict one-round classical-communication form over a (1/2)|I>> pair.

    Returns (sender, receiver) for `build_realization_cc`.  The dim-4 ancilla
    halves are (X, W) qubit pairs.  The sender filters its W half so the
    shared W pair ends up in the circuit's non-maximally entangled state,
    then runs its half of the circuit and sends the outcome (measured bit,
    filter outcome); the receiver applies the filtering correction and its
    half, firing sigma_x iff both computational outcomes were 1.  Direction
    "B_to_A" puts the sigma_x on the A side (the original circuit); "A_to_B"
    is the mirrored variant.
    """
    alpha = _check_alpha(alpha)
    if direction not in ("A_to_B", "B_to_A"):
        raise ValueError(f"unknown direction {direction!r}")
    m_ops = _nielsen_filters(alpha)
    i2 = np.eye(2)
    bras = np.eye(2, dtype=complex)

    if direction == "B_to_A":
        snd, rcv = "B", "A"
    else:
        snd, rcv = "A", "B"

    def on_w(p, op):
        """Split the ancilla E_p into qubits (X_p, W_p) and apply op to W_p."""
        return _cp_map([kron(i2, i2, op)], SystemLayout(((p, 2), ("E_" + p, 4))),
                       layout(p, "X_" + p, "W_" + p))

    def then_swap(c, p):
        lay = layout("W_" + p, p, "X_" + p)
        return link(c, _cp_map([controlled_swap(2)], lay, lay), lay.labels)

    def drop_x(c, p, effects):
        """Remove X_p through the given effects.  One wire is re-emitted so that
        it comes last: A' is (A, W_A) and B' is (W_B, B)."""
        keep = layout("W_A" if p == "A" else "B")
        piece = _cp_map([kron(e, i2) for e in effects], layout("X_" + p).concat(keep), keep)
        return link(c, piece, piece.in_layout.labels)

    fire_lay = layout("X_" + rcv, "W_" + rcv, rcv)
    fire = _cp_map([kron(_P0, np.eye(4)) + kron(_P1, _controlled_sigma_x())], fire_lay, fire_lay)
    branches = []
    corrections = []
    for meas in range(2):
        for k in range(2):
            branches.append(drop_x(then_swap(on_w(snd, m_ops[k]), snd), snd, [bras[meas]]))
            got = then_swap(on_w(rcv, pauli("x") if k == 1 else i2), rcv)
            if meas == 1:
                got = link(got, fire, fire_lay.labels)
            corrections.append(drop_x(got, rcv, bras))

    b0, c0 = branches[0], corrections[0]
    sender = Channel(outcome_stack([b.choi for b in branches], b0.d_out, b0.d_in),
                     b0.in_layout, b0.out_layout.concat(_OUTCOME))
    receiver = Channel(outcome_stack([c.choi for c in corrections], c0.d_out, c0.d_in),
                       _OUTCOME.concat(c0.in_layout), c0.out_layout)
    return sender, receiver


def build_r_alpha_realization(alpha: float, direction: str = "B_to_A") -> Channel:
    """The channel rebuilt through build_realization_cc; equals the other routes.

    Either direction gives the output order (A, W_A) ++ (W_B, B).
    """
    return build_realization_cc(direction, *realization_spec(alpha, direction))
