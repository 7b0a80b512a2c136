"""Directional no-signaling verdicts and the constructive realization
builders: localizable, one-round classical communication, one-way quantum
communication, and the teleportation reduction."""
import numpy as np
import pytest

from nosigchan.tensor import (
    TensorError,
    embed,
    kron,
    layout,
    max_entangled_vec,
    pauli,
    ptrace,
    swap_op,
)
from nosigchan.channels import (
    Channel,
    ChannelError,
    channel_from_kraus,
    identity_channel,
    unitary_channel,
)
from nosigchan.nosignal import (
    build_localizable,
    build_realization_cc,
    build_semilocalizable,
    check_nosignaling_dir,
    signaling_verdict,
    teleport_gadget,
    teleport_realization,
)
from conftest import (
    OUTCOME,
    apply,
    choi_from_map,
    random_controlled,
    random_cptp,
    random_density,
    random_instrument,
    random_state_vec,
)


# ---------------------------------------------------------------------------
# verdicts


def test_product_channel_cannot_signal(rng):
    a = random_cptp(rng, layout("A"), layout("Ap"))
    b = random_cptp(rng, layout("B"), layout("Bp"))
    from nosigchan.channels import compose_par

    c = compose_par(a, b)
    v = signaling_verdict(c, ["A"], ["Ap"], ["B"], ["Bp"])
    assert v.a_to_b and v.b_to_a
    assert v.residual_a <= 1e-10 and v.residual_b <= 1e-10


def test_swap_channel_signals_both_ways():
    # A's input emerges on B's output and vice versa.
    c = unitary_channel(swap_op(2), layout("A", "B"), layout("Ap", "Bp"))
    v = signaling_verdict(c, ["A"], ["Ap"], ["B"], ["Bp"])
    assert not v.a_to_b and not v.b_to_a
    assert v.residual_a > 0.5 and v.residual_b > 0.5


def test_cnot_signals_both_ways():
    cnot = np.eye(4)[:, [0, 1, 3, 2]].astype(complex)
    c = unitary_channel(cnot, layout("A", "B"), layout("Ap", "Bp"))
    # tracing out only B' leaves the control visible on A', so the remaining
    # marginal cannot factor as I_A (x) S
    ok, res = check_nosignaling_dir(c, ["A"], ["Bp"])
    assert not ok and res > 0.1
    # both directional checks fail: the control leaks to the target and the
    # target leaks back to the control through phase kickback
    v = signaling_verdict(c, ["A"], ["Ap"], ["B"], ["Bp"])
    assert not v.a_to_b and not v.b_to_a
    # tracing out every output trivially factors
    ok, res = check_nosignaling_dir(c, ["B"], ["Ap", "Bp"])
    assert ok and res <= 1e-12


def test_check_label_errors(rng):
    c = random_cptp(rng, layout("A", "B"), layout("Ap", "Bp"))
    with pytest.raises(TensorError):
        check_nosignaling_dir(c, ["Z"], ["Ap"])
    with pytest.raises(TensorError):
        check_nosignaling_dir(c, ["A", "A"], ["Ap"])


def test_verdict_invariant_under_sender_input_unitary(rng):
    c = random_cptp(rng, layout("A", "B"), layout("Ap", "Bp"))
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(g)
    big = embed(u, ["A"], c.in_layout)

    conj = choi_from_map(
        lambda rho: apply(c, big @ rho @ big.conj().T), c.in_layout, c.out_layout
    )
    ok1, _ = check_nosignaling_dir(c, ["A"], ["Ap"])
    ok2, _ = check_nosignaling_dir(conj, ["A"], ["Ap"])
    assert ok1 == ok2


# ---------------------------------------------------------------------------
# build_localizable


def _discard_ancilla_piece(sys_label, anc_label, d):
    """(system, ancilla) -> system: trace out the ancilla."""
    in_lay = layout((sys_label, 2), (anc_label, d))
    out_lay = layout((sys_label + "p", 2))
    return choi_from_map(
        lambda rho: ptrace(rho, in_lay, [anc_label]), in_lay, out_lay
    )


def test_localizable_discard_ancilla_gives_product_identity():
    d = 3
    ga = _discard_ancilla_piece("A", "EA", d)
    gb = _discard_ancilla_piece("B", "EB", d)
    c = build_localizable(ga, gb, d).validate()
    want = identity_channel(layout("A", "B")).choi
    # relabel: the identity on (A,B) has the same Choi matrix
    assert np.allclose(c.choi, want)
    assert c.in_layout.labels == ("A", "B")
    assert c.out_layout.labels == ("Ap", "Bp")


def test_localizable_swap_with_ancilla_is_constant_pair_output():
    d = 2
    sw = swap_op(2)

    def piece(s, e):
        return unitary_channel(
            sw, layout((s, 2), (e, 2)), layout((s + "p", 2), (e + "p", 2))
        )

    # After the swap the first output wire holds the former ancilla content;
    # keep it and discard the wire now carrying the input.
    ga = piece("A", "EA")
    gb = piece("B", "EB")

    def keep_first_out(c, dropped):
        out = c.out_layout
        return choi_from_map(
            lambda rho: ptrace(apply(c, rho), out, [dropped]),
            c.in_layout,
            out.drop([dropped]),
        )

    ga2 = keep_first_out(ga, "EAp")
    gb2 = keep_first_out(gb, "EBp")
    c = build_localizable(ga2, gb2, d).validate()
    # constant channel: output is always one half-pair per side, jointly the
    # shared maximally entangled state
    phi = max_entangled_vec(2, normalized=True)
    pair = np.outer(phi, phi.conj())
    rho = random_density(np.random.default_rng(3), 4)
    assert np.allclose(apply(c, rho), pair)


def test_localizable_is_nosignaling_both_ways(rng):
    ga = random_cptp(rng, layout("A", "EA"), layout("Ap"))
    gb = random_cptp(rng, layout("B", "EB"), layout("Bp"))
    c = build_localizable(ga, gb, 2).validate()
    v = signaling_verdict(c, ["A"], ["Ap"], ["B"], ["Bp"])
    assert v.a_to_b and v.b_to_a
    assert max(v.residual_a, v.residual_b) <= 1e-9


def test_localizable_ancilla_dim_checked(rng):
    ga = random_cptp(rng, layout("A", ("EA", 3)), layout("Ap"))
    gb = random_cptp(rng, layout("B", ("EB", 2)), layout("Bp"))
    with pytest.raises(ChannelError):
        build_localizable(ga, gb, 3)


# ---------------------------------------------------------------------------
# build_realization_cc


def test_single_outcome_realization_degenerates_to_localizable(rng):
    ga = random_cptp(rng, layout("A", "EA"), layout("Ap"))
    gb = random_cptp(rng, layout("B", "EB"), layout("Bp"))
    wire = layout((OUTCOME, 1))
    sender = Channel(ga.choi, ga.in_layout, ga.out_layout.concat(wire))
    receiver = Channel(gb.choi, wire.concat(gb.in_layout), gb.out_layout)
    got = build_realization_cc("A_to_B", sender, receiver)
    want = build_localizable(ga, gb, 2)
    assert np.allclose(got.choi, want.choi)


def _parties(rng, direction, d_anc=2, n=2):
    """A random sender instrument and receiver family for the given direction."""
    snd, rcv = (("A", "EA"), ("B", "EB")) if direction == "A_to_B" else (("B", "EB"), ("A", "EA"))
    sender = random_instrument(rng, layout(snd[0], snd[1]), layout(snd[0] + "p"), n_outcomes=n)
    receiver = random_controlled(rng, layout(rcv[0], (rcv[1], d_anc)), layout(rcv[0] + "p"), n)
    return sender, receiver


def test_realization_receiver_cannot_signal(rng):
    # Direction A_to_B: the outcome travels from A to B, so B (receiver)
    # cannot signal; and mirrored for B_to_A.  Either way A's wires come first.
    for _ in range(3):
        for direction, rcv in (("A_to_B", "B"), ("B_to_A", "A")):
            c = build_realization_cc(direction, *_parties(rng, direction)).validate()
            assert c.in_layout.labels == ("A", "B")
            assert c.out_layout.labels == ("Ap", "Bp")
            ok, res = check_nosignaling_dir(c, [rcv], [rcv + "p"])
            assert ok and res <= 1e-9


def test_realization_spec_invariants(rng):
    for direction in ("A_to_B", "B_to_A"):
        sender, receiver = _parties(rng, direction)
        with pytest.raises(ChannelError, match="unknown direction"):
            build_realization_cc("sideways", sender, receiver)
        _, three = _parties(rng, direction, n=3)
        with pytest.raises(ChannelError, match="dimension 2 vs 3"):  # message dimensions
            build_realization_cc(direction, sender, three)


def test_realization_rejects_correction_with_other_ancilla_dim(rng):
    # The pair's dimension is read off the sender's ancilla (dim 2); a
    # receiver expecting a dim-3 ancilla cannot be fed from it.
    for direction in ("A_to_B", "B_to_A"):
        sender, _ = _parties(rng, direction)
        _, receiver = _parties(rng, direction, d_anc=3)
        with pytest.raises(ChannelError, match="dimension 2 vs 3"):
            build_realization_cc(direction, sender, receiver)


def test_realization_rejects_quantum_message(rng):
    # A message wire that keeps coherence between its values would make the
    # build a one-way quantum channel; dephasing it makes the sender valid.
    for direction in ("A_to_B", "B_to_A"):
        _, receiver = _parties(rng, direction)
        snd = "A" if direction == "A_to_B" else "B"
        sender = random_cptp(rng, layout(snd, "E" + snd), layout(snd + "p", (OUTCOME, 2)))
        with pytest.raises(ChannelError, match="not classical"):
            build_realization_cc(direction, sender, receiver)
        blocks = sender.choi.reshape(2, 2, 4, 2, 2, 4).copy()
        blocks[:, 0, :, :, 1, :] = 0
        blocks[:, 1, :, :, 0, :] = 0
        dephased = Channel(blocks.reshape(16, 16), sender.in_layout, sender.out_layout)
        build_realization_cc(direction, dephased, receiver).validate()


# ---------------------------------------------------------------------------
# build_semilocalizable


def test_semilocalizable_prepare_relay_gives_product(rng):
    # v1 = identity on A times "prepare sigma on the relay";
    # v2 = discard relay, identity on B.
    sigma = random_density(rng, 2)
    v1 = choi_from_map(
        lambda rho: kron(rho, sigma), layout("A"), layout("Ap", "E")
    )
    in2 = layout("E", "B")
    v2 = choi_from_map(lambda rho: ptrace(rho, in2, ["E"]), in2, layout("Bp"))
    c = build_semilocalizable(v1, v2).validate()
    want = identity_channel(layout("A", "B")).choi
    assert np.allclose(c.choi, want)


def test_semilocalizable_classical_copy_signals_one_way():
    # v1 copies A's computational basis onto the relay; v2 applies a
    # relay-controlled sigma_x to B and discards the relay.
    v1 = channel_from_kraus(
        [np.array([[1, 0], [0, 0], [0, 0], [0, 0]], dtype=complex),
         np.array([[0, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)],
        layout("A"),
        layout("Ap", "E"),
    )
    cnot = np.eye(4)[:, [0, 1, 3, 2]].astype(complex)
    in2 = layout("E", "B")
    v2 = choi_from_map(
        lambda rho: ptrace(cnot @ rho @ cnot.conj().T, in2, ["E"]), in2, layout("Bp")
    )
    c = build_semilocalizable(v1, v2).validate()
    v = signaling_verdict(c, ["A"], ["Ap"], ["B"], ["Bp"])
    assert not v.a_to_b  # A's basis choice shows up on B'
    assert v.b_to_a  # nothing flows back


def test_semilocalizable_random_is_one_way(rng):
    v1 = random_cptp(rng, layout("A"), layout("Ap", ("E", 3)))
    v2 = random_cptp(rng, layout(("E", 3), "B"), layout("Bp"))
    c = build_semilocalizable(v1, v2).validate()
    ok, res = check_nosignaling_dir(c, ["B"], ["Bp"])
    assert ok and res <= 1e-9


def test_semilocalizable_relay_dim_checked(rng):
    v1 = random_cptp(rng, layout("A"), layout("Ap", ("E", 3)))
    v2 = random_cptp(rng, layout(("E", 2), "B"), layout("Bp"))
    with pytest.raises(ChannelError):
        build_semilocalizable(v1, v2)


# ---------------------------------------------------------------------------
# teleportation


def test_bell_basis_orthonormal():
    for d in (2, 3):
        bells, _ = teleport_gadget(d)
        b = np.array(bells)
        assert np.allclose(b.conj() @ b.T, np.eye(d * d))


def test_qubit_bells_are_standard_up_to_phase():
    bells, cors = teleport_gadget(2)
    s = 1 / np.sqrt(2)
    standard = [
        np.array([1, 0, 0, 1]) * s,   # |00>+|11>
        np.array([1, 0, 0, -1]) * s,  # |00>-|11>
        np.array([0, 1, 1, 0]) * s,   # |01>+|10>
        np.array([0, 1, -1, 0]) * s,  # |01>-|10>
    ]
    for b in bells:
        assert any(np.isclose(abs(np.vdot(b, st)), 1.0) for st in standard)
    for u, p in zip(cors, [pauli("i"), pauli("z"), pauli("x"), pauli("x") @ pauli("z")]):
        assert np.isclose(abs(np.trace(u.conj().T @ p)) / 2, 1.0)


def test_corrections_are_unitary():
    for d in (2, 3, 4):
        _, cors = teleport_gadget(d)
        for u in cors:
            assert np.allclose(u @ u.conj().T, np.eye(d))


def test_teleport_identity_on_random_states(rng):
    # Manual composition: psi on slot 1, shared pair on (2,3); Bell-measure
    # (1,2); correct slot 3. Every outcome branch returns psi exactly.
    for d in (2, 3, 4):
        bells, cors = teleport_gadget(d)
        psi = random_state_vec(rng, d)
        full = np.kron(psi, max_entangled_vec(d, normalized=True))
        recon = np.zeros((d, d), dtype=complex)
        for b, u in zip(bells, cors):
            resid = b.conj() @ full.reshape(d * d, d)
            fixed = u @ resid
            recon += np.outer(fixed, fixed.conj())
        assert np.max(np.abs(recon - np.outer(psi, psi.conj()))) <= 1e-10


def test_teleport_realization_equals_semilocalizable(rng):
    for e in (2, 3, 4):
        v1 = random_cptp(rng, layout("A"), layout("Ap", ("E", e)))
        v2 = random_cptp(rng, layout(("E", e), "B"), layout("Bp"))
        semi = build_semilocalizable(v1, v2)
        tele = teleport_realization(v1, v2)
        assert np.max(np.abs(tele.choi - semi.choi)) <= 1e-10
        assert tele.in_layout.labels == semi.in_layout.labels
        assert tele.out_layout.labels == semi.out_layout.labels
