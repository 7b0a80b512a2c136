"""Directional no-signaling verdicts and the constructive realization
builders: localizable, one-round classical communication, one-way quantum
communication, and the teleportation reduction."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nosigchan import nosignal
from nosigchan.tensor import (
    SystemLayout,
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
    link,
    unitary_channel,
)
from nosigchan.counterexample import build_r_alpha_realization
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
    identity_channel,
    pair_link_oracle,
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
    c = link(a, b, ())
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


def test_marginal_that_is_not_a_channel_is_rejected():
    # 2 x identity factorizes as I_A (x) S with S = 2 x the identity on B:
    # the factorization test passes, but S is not trace-preserving
    ident = identity_channel(layout("A", "B"))
    c = Channel(2 * ident.choi, ident.in_layout, ident.out_layout)
    want = (r"marginal passed the factorization test but is not a channel "
            r"\(min eig .*, TP residual 1\.000e\+00\)")
    with pytest.raises(ChannelError, match=want):
        check_nosignaling_dir(c, ["A"], ["A"])


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


_WIRES = ("P", "Q", "R", "S")


@st.composite
def _relabelled_channels(draw):
    """Dimensions of 2-4 wires, each an input and an output of one party, the
    party of each wire, a bijection of the wire names and a seed."""
    n = draw(st.integers(2, 4))
    dims = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=n, max_size=n))
    return dims, draw(st.lists(st.booleans(), min_size=n, max_size=n)), \
        draw(st.permutations(_WIRES)), draw(st.integers(0, 2**32 - 1))


def _verdict_on(c, names, on_a):
    sides = [[l for l, a in zip(names, on_a) if a == side] for side in (True, False)]
    return signaling_verdict(c, sides[0], sides[0], sides[1], sides[1])


@settings(max_examples=60, deadline=None)
@given(_relabelled_channels())
def test_verdict_invariant_under_wire_relabelling(case):
    # Renamed wires reuse the old names with other dimensions and parties, so
    # a plan keyed on the wrong thing would hand back another layout's legs.
    dims, on_a, perm, seed = case
    names = _WIRES[: len(dims)]
    ins, outs = zip(*dims)
    c = random_cptp(np.random.default_rng(seed), SystemLayout(tuple(zip(names, ins))),
                    SystemLayout(tuple(zip(names, outs))))
    new = [perm[_WIRES.index(l)] for l in names]
    renamed = Channel(c.choi, SystemLayout(tuple(zip(new, c.in_layout.dims))),
                      SystemLayout(tuple(zip(new, c.out_layout.dims))))
    want, got = _verdict_on(c, names, on_a), _verdict_on(renamed, new, on_a)
    assert (got.a_to_b, got.b_to_a, got.residual_a, got.residual_b) == \
        (want.a_to_b, want.b_to_a, want.residual_a, want.residual_b)


# ---------------------------------------------------------------------------
# the verdict's and the pair's cached plans

_LOC_SIDES = (["A"], ["Ap"], ["B"], ["Bp", "Bq"])


def _localizable_ops(rng):
    """(g_a, g_b, d) per d; g_b's output dimension grows with d, so the
    localizable channel's layout, and with it the verdict's key, does too."""
    return [(random_cptp(rng, layout("A", ("EA", d)), layout("Ap")),
             random_cptp(rng, layout("B", ("EB", d)), layout(("Bp", d), "Bq")), d)
            for d in range(2, 7)]


def _localizable_op(ga, gb, d):
    c = build_localizable(ga, gb, d)
    return c, signaling_verdict(c, *_LOC_SIDES)


def test_warm_verdict_and_localizable_build_no_layout(rng, monkeypatch):
    ops = _localizable_ops(rng)
    cold = [_localizable_op(*op) for op in ops]

    def boom(self):
        raise AssertionError(f"built a SystemLayout {self.subsystems}")

    monkeypatch.setattr(SystemLayout, "__post_init__", boom)
    for op, (c, v) in zip(ops, cold, strict=True):
        got, w = _localizable_op(*op)
        assert np.array_equal(got.choi, c.choi) and w == v


def test_verdict_plan_label_errors_raise_every_call(rng):
    c = random_cptp(rng, layout("A", "B"), layout("Ap", "Bp"))
    for labels in ((["Z"], ["Ap"]), (["A", "A"], ["Ap"]), (["A"], ["Zp"]), (["A"], ["Ap", "Ap"])):
        for _ in range(2):  # an exception is not cached
            with pytest.raises(TensorError):
                check_nosignaling_dir(c, *labels)


def test_verdict_plan_list_and_tuple_share_one_entry(rng):
    c = random_cptp(rng, layout("A", "B"), layout("Ap", "Bp"))
    nosignal._verdict_plan.cache_clear()
    want = check_nosignaling_dir(c, ["A"], ["Ap", "Bp"])
    assert check_nosignaling_dir(c, ("A",), ("Ap", "Bp")) == want
    info = nosignal._verdict_plan.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_plans_hold_one_entry_per_distinct_key(rng):
    ops = _localizable_ops(rng)
    nosignal._verdict_plan.cache_clear()
    nosignal._pair_plan.cache_clear()
    verdict_keys, pair_keys = set(), set()
    for ga, gb, d in ops + ops:
        c, _ = _localizable_op(ga, gb, d)
        for side in (_LOC_SIDES[:2], _LOC_SIDES[2:]):
            verdict_keys.add((c.in_layout, c.out_layout) + tuple(map(tuple, side)))
        pair_keys.add((ga.in_layout, ga.out_layout))
    assert len(verdict_keys) == 10 and len(pair_keys) == 5
    assert nosignal._verdict_plan.cache_info().currsize == len(verdict_keys)
    assert nosignal._pair_plan.cache_info().currsize == len(pair_keys)


def test_uncached_plans_give_the_same_bytes(rng, monkeypatch):
    ops = _localizable_ops(rng)
    got = [_localizable_op(*op) for op in ops]
    monkeypatch.setattr(nosignal, "_verdict_plan", nosignal._verdict_plan.__wrapped__)
    monkeypatch.setattr(nosignal, "_pair_plan", nosignal._pair_plan.__wrapped__)
    for op, (c, v) in zip(ops, got, strict=True):
        want, w = _localizable_op(*op)
        assert c.choi.tobytes() == want.choi.tobytes()
        assert (v.residual_a, v.residual_b, v.a_to_b, v.b_to_a) == \
            (w.residual_a, w.residual_b, w.a_to_b, w.b_to_a)


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
    # g_b's ancilla is checked by the link, g_a's by the builder itself
    for da, db, d in ((3, 2, 3), (2, 3, 3), (3, 3, 2)):
        ga = random_cptp(rng, layout("A", ("EA", da)), layout("Ap"))
        gb = random_cptp(rng, layout("B", ("EB", db)), layout("Bp"))
        with pytest.raises(ChannelError, match="dimension"):
            build_localizable(ga, gb, d)


@pytest.mark.parametrize("d", range(2, 7))
def test_pair_leg_move_equals_linking_the_pair(rng, d):
    # an extra input before the ancilla, and two outputs
    g = random_cptp(rng, layout("A", ("Z", 3), ("E", d)), layout("Ap", ("Aq", 3)))
    got, want = nosignal._fed_by_pair(g, "#half"), pair_link_oracle(g, "#half")
    assert got.in_layout == want.in_layout and got.out_layout == want.out_layout
    assert np.max(np.abs(got.choi - want.choi)) <= 1e-15


def test_builders_match_the_two_link_chain(rng, monkeypatch):
    builds = []
    for d in range(2, 7):
        ga = random_cptp(rng, layout("A", ("EA", d)), layout("Ap"))
        gb = random_cptp(rng, layout("B", ("EB", d)), layout("Bp", "Bq"))
        builds.append(lambda ga=ga, gb=gb, d=d: build_localizable(ga, gb, d))
    for direction in ("A_to_B", "B_to_A"):
        parties = _parties(rng, direction, n=3)
        builds.append(lambda p=parties, direction=direction: build_realization_cc(direction, *p))
        builds.append(lambda direction=direction: build_r_alpha_realization(1 / 6, direction))
    got = [build().choi for build in builds]
    monkeypatch.setattr(nosignal, "_fed_by_pair", pair_link_oracle)  # link the pair instead
    for choi, build in zip(got, builds, strict=True):
        assert np.max(np.abs(choi - build().choi)) <= 1e-15


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


def test_realization_rejects_receiver_that_is_not_trace_preserving(rng):
    # the pieces are linked as given; the assembled channel's TP check catches
    # a receiver that keeps only half the weight
    for direction in ("A_to_B", "B_to_A"):
        sender, receiver = _parties(rng, direction)
        half = Channel(receiver.choi / 2, receiver.in_layout, receiver.out_layout)
        with pytest.raises(ChannelError, match="^realization is not trace-preserving: residual "):
            build_realization_cc(direction, sender, half)


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


@pytest.mark.parametrize("build", [build_semilocalizable, teleport_realization])
def test_missing_relay_wire_is_named(rng, build):
    v1 = random_cptp(rng, layout("A"), layout("Ap", ("E", 2)))
    v2 = random_cptp(rng, layout(("E", 2), "B"), layout("Bp"))
    no_output = Channel(np.eye(1), layout(("A", 1)), SystemLayout(()))
    no_input = Channel(np.eye(1), SystemLayout(()), layout(("Bp", 1)))
    with pytest.raises(ChannelError, match="v1 needs the relay wire"):
        build(no_output, v2)
    with pytest.raises(ChannelError, match="v2 needs the relay wire"):
        build(v1, no_input)


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
    for e in (2, 3, 4, 5):
        v1 = random_cptp(rng, layout("A"), layout("Ap", ("E", e)))
        v2 = random_cptp(rng, layout(("E", e), "B"), layout("Bp"))
        semi = build_semilocalizable(v1, v2)
        tele = teleport_realization(v1, v2)
        assert np.max(np.abs(tele.choi - semi.choi)) <= 1e-10
        assert tele.in_layout.labels == semi.in_layout.labels
        assert tele.out_layout.labels == semi.out_layout.labels


def test_teleport_wire_is_built_once_per_relay_dimension(rng, monkeypatch):
    cases = []
    for e in rng.permutation([2, 3, 4, 5] * 3):
        v1 = random_cptp(rng, layout("A"), layout("Ap", ("E", int(e))))
        v2 = random_cptp(rng, layout(("E", int(e)), "B"), layout("Bp"))
        cases.append((v1, v2, teleport_realization(v1, v2).choi))
    wire = nosignal._teleport_wire(2)
    assert nosignal._teleport_wire(2) is wire
    with pytest.raises(ValueError, match="read-only"):
        wire.choi[0, 0] = 1
    # the uncached build gives the same bytes
    monkeypatch.setattr(nosignal, "_teleport_wire", nosignal._teleport_wire.__wrapped__)
    for v1, v2, got in cases:
        assert np.array_equal(got, teleport_realization(v1, v2).choi)


def test_teleport_relay_dimension_one_raises_every_call(rng):
    v1 = random_cptp(rng, layout("A"), layout("Ap", ("E", 1)))
    v2 = random_cptp(rng, layout(("E", 1), "B"), layout("Bp"))
    for _ in range(2):  # an exception is not cached
        with pytest.raises(TensorError, match="d >= 2"):
            teleport_realization(v1, v2)
