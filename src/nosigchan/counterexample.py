"""The two-qubit-in, four-qubit-out counterexample channel family.

Six qubit wires: inputs A, B; a shared pair (1/sqrt 2)|I>> on X_A, X_B; a
pair sqrt(a)|00> + sqrt(1-a)|11> on W_A, W_B.  Both X wires are swapped
with the corresponding system wire conditionally on the W wires, measured,
and a sigma_x fires on one side iff both outcomes are 1.  Outputs are
grouped as A' = (A, W_A) and B' = (W_B, B).

The family is built two independent ways: closed-form Kraus vectors and a
density-matrix simulation of the measurement circuit.  A third route casts
it as a strict one-round classical-communication realization over a
maximally entangled dim-4 ancilla pair.
"""
from __future__ import annotations

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
    permute_vector,
    ptrace,
    vector_bra_contract,
)
from .channels import (OUT_TAG, TP_TOL, Channel, ChannelError, channel_from_kraus, choi_from_map,
                       choi_layout, link, outcome_stack, tp_residual)
from .nosignal import build_realization_cc

IN_LAYOUT = layout("A", "B")
OUT_LAYOUT = layout("A", "W_A", "W_B", "B")
# The classical outcome x = 2m + n of the two computational-basis measurements.
_OUTCOME = layout(("#outcome", 4))

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
    """The four closed-form Kraus operators (16 x 4), outcome order (m, n)."""
    alpha = _check_alpha(alpha)
    lay8 = layout("A", "B", "Ain", "Bin", "X_A", "X_B", "W_A", "W_B")
    vec_ab = np.eye(4, dtype=complex).reshape(-1)  # |I>> on (A,B | Ain,Bin)
    full = np.kron(
        np.kron(vec_ab, max_entangled_vec(2, normalized=True)),
        pair_state_vec(alpha),
    )
    cs = controlled_swap(2)
    e_op = embed(cs, ["W_A", "A", "X_A"], lay8) @ embed(cs, ["W_B", "B", "X_B"], lay8)
    phi = e_op @ full

    lay6 = lay8.drop(["X_A", "X_B"])
    sigma = embed(_controlled_sigma_x(), ["W_A", "A"], lay6)
    canonical = ["A", "W_A", "W_B", "B", "Ain", "Bin"]
    ks = []
    for m in range(2):
        for n in range(2):
            bra = np.zeros(4, dtype=complex)
            bra[2 * m + n] = 1
            kv = vector_bra_contract(phi, lay8, ["X_A", "X_B"], bra)
            if m == 1 and n == 1:
                kv = sigma @ kv
            kv, _ = permute_vector(kv, lay6, canonical)
            ks.append(kv.reshape(16, 4))
    return ks


def build_r_alpha_kraus(alpha: float) -> Channel:
    """Choi operator from the closed-form Kraus vectors."""
    return channel_from_kraus(kraus_operators(alpha), IN_LAYOUT, OUT_LAYOUT)


def circuit_instrument(alpha: float, variant: str = VARIANT_SIGMA_ON_A) -> Channel:
    """The measurement circuit as an instrument: outcome x = 2m + n on the last output."""
    alpha = _check_alpha(alpha)
    if variant not in (VARIANT_SIGMA_ON_A, VARIANT_SIGMA_ON_B):
        raise ValueError(f"unknown variant {variant!r}")
    lay6 = layout("A", "B", "X_A", "X_B", "W_A", "W_B")
    phi2 = max_entangled_vec(2, normalized=True)
    psi = pair_state_vec(alpha)
    ancillas = kron(np.outer(phi2, phi2.conj()), np.outer(psi, psi.conj()))
    cs = controlled_swap(2)
    e_op = embed(cs, ["W_A", "A", "X_A"], lay6) @ embed(cs, ["W_B", "B", "X_B"], lay6)
    lay4 = lay6.drop(["X_A", "X_B"])
    if variant == VARIANT_SIGMA_ON_A:
        sigma = embed(_controlled_sigma_x(), ["W_A", "A"], lay4)
    else:
        sigma = embed(_controlled_sigma_x(), ["W_B", "B"], lay4)

    branches = []
    for m in range(2):
        for n in range(2):
            bra = np.zeros(4, dtype=complex)
            bra[2 * m + n] = 1

            def fn(rho, bra=bra, fire=(m == 1 and n == 1)):
                s = kron(rho, ancillas)
                s = e_op @ s @ e_op.conj().T
                s = bra_sandwich(s, lay6, ["X_A", "X_B"], bra)
                if fire:
                    s = sigma @ s @ sigma.conj().T
                s, _ = permute_to(s, lay4, OUT_LAYOUT.labels)
                return s

            branches.append(choi_from_map(fn, IN_LAYOUT, OUT_LAYOUT).choi)
    return Channel(outcome_stack(branches, OUT_LAYOUT.total_dim, IN_LAYOUT.total_dim),
                   IN_LAYOUT, OUT_LAYOUT.concat(_OUTCOME))


def build_r_alpha_circuit(alpha: float, variant: str = VARIANT_SIGMA_ON_A) -> Channel:
    """Choi operator by direct density-matrix simulation of the circuit."""
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
