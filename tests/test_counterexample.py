"""The two-qubit-in, four-qubit-out channel family: closed-form Kraus route,
circuit-simulation route, and the one-round classical-communication route
must produce the same Choi operator; boundary members have known behavior."""
import numpy as np
import pytest

from nosigchan.tensor import (
    SystemLayout,
    controlled_swap,
    embed,
    kron,
    layout,
    max_entangled_vec,
    pauli,
    permute_to,
    ptrace,
)
from nosigchan.channels import OUT_TAG, Channel, ChannelError, choi_layout, link, outcome_stack
from nosigchan.nosignal import build_realization_cc, signaling_verdict
from nosigchan import counterexample
from nosigchan.counterexample import (
    IN_LAYOUT,
    OUT_LAYOUT,
    VARIANT_SIGMA_ON_A,
    VARIANT_SIGMA_ON_B,
    build_r_alpha_circuit,
    build_r_alpha_kraus,
    build_r_alpha_realization,
    circuit_instrument,
    kraus_operators,
    pair_state_vec,
    realization_spec,
)
from nosigchan.counterexample import (_OUTCOME, _P0, _P1, _check_alpha, _controlled_sigma_x,
                                      _nielsen_filters)
from conftest import (PARITY_ALPHAS, apply, choi_from_map, gather_by_index_loop, permute_vector,
                      random_density, vector_bra_contract)

ALPHA_GRID = [0.0, 1.0 / 6.0, 0.25, 0.5, 0.75, 1.0]


def test_layout_constants():
    assert IN_LAYOUT.labels == ("A", "B")
    assert OUT_LAYOUT.labels == ("A", "W_A", "W_B", "B")
    assert IN_LAYOUT.total_dim == 4
    assert OUT_LAYOUT.total_dim == 16


def test_pair_state():
    v = pair_state_vec(0.3)
    assert np.isclose(np.linalg.norm(v), 1.0)
    assert np.isclose(abs(v[0]) ** 2, 0.3)
    assert v[1] == v[2] == 0


def test_alpha_range_checked():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError, match="alpha must lie in"):
            build_r_alpha_kraus(bad)
        for route in (circuit_instrument, build_r_alpha_circuit):
            with pytest.raises(ValueError, match=rf"alpha must lie in \[0, 1\], got {bad}$"):
                route(bad)


def test_unknown_variant_rejected():
    for route in (circuit_instrument, build_r_alpha_circuit):
        with pytest.raises(ValueError, match="^unknown variant 'sigma_on_C'$"):
            route(0.5, "sigma_on_C")


# ---------------------------------------------------------------------------
# Kraus route


def test_kraus_count_shape_completeness():
    for alpha in ALPHA_GRID:
        ks = kraus_operators(alpha)
        assert len(ks) == 4
        comp = np.zeros((4, 4), dtype=complex)
        for k in ks:
            assert k.shape == (16, 4)
            comp += k.conj().T @ k
        assert np.max(np.abs(comp - np.eye(4))) <= 1e-12


def test_kraus_products_closed_forms():
    # Analytically derived normal forms of the diagonal products: outcomes
    # with unequal bits only receive the both-swaps branch, so their products
    # are scaled projectors, while the equal-bit outcomes mix both branches.
    alpha = 0.37
    k00, k01, k10, k11 = kraus_operators(alpha)
    assert np.allclose(
        k00.conj().T @ k00, np.diag([1 - alpha / 2, alpha / 2, alpha / 2, alpha / 2])
    )
    assert np.allclose(
        k11.conj().T @ k11, np.diag([alpha / 2, alpha / 2, alpha / 2, 1 - alpha / 2])
    )
    d01 = np.zeros((4, 4)); d01[1, 1] = 1 - alpha
    d10 = np.zeros((4, 4)); d10[2, 2] = 1 - alpha
    assert np.allclose(k01.conj().T @ k01, d01)
    assert np.allclose(k10.conj().T @ k10, d10)
    # the fire-branch operator is range-orthogonal to the single-swap ones
    assert np.max(np.abs(k11.conj().T @ k01)) == 0.0
    assert np.max(np.abs(k11.conj().T @ k10)) == 0.0


def test_choi_is_cptp_with_unnormalized_trace():
    for alpha in (0.0, 1.0 / 6.0, 1.0):
        c = build_r_alpha_kraus(alpha).validate()
        assert np.isclose(np.trace(c.choi).real, 4.0)
        assert c.in_layout.labels == IN_LAYOUT.labels
        assert c.out_layout.labels == OUT_LAYOUT.labels


# ---------------------------------------------------------------------------
# circuit route and equivalence


def test_circuit_instrument_is_valid():
    ins = circuit_instrument(1.0 / 6.0).validate()
    assert ins.in_layout.labels == IN_LAYOUT.labels
    assert ins.out_layout.labels[:-1] == OUT_LAYOUT.labels
    assert ins.out_layout.dims[-1] == 4  # outcome x = 2m + n


def test_outcome_probabilities_match_branch_traces():
    # On the maximally mixed input the branch probability is the branch-Choi
    # trace divided by the input dimension: the outcome wire's diagonal.
    alpha = 0.3
    ins = circuit_instrument(alpha)
    lay = choi_layout(ins.out_layout, ins.in_layout)
    wire = ins.out_layout.labels[-1] + OUT_TAG
    marg = ptrace(ins.choi, lay, [l for l in lay.labels if l != wire]) / 4.0
    assert np.array_equal(marg, np.diag(np.diag(marg)))
    probs = np.diag(marg).real
    assert np.isclose(sum(probs), 1.0)
    # unequal outcomes need both swaps to fire, each input bit measured
    # uniformly: probability (1-alpha)/4 each
    assert np.isclose(probs[1], (1 - alpha) / 4)
    assert np.isclose(probs[2], (1 - alpha) / 4)


def test_construction_routes_agree():
    for alpha in ALPHA_GRID:
        ck = build_r_alpha_kraus(alpha)
        ca = build_r_alpha_circuit(alpha, VARIANT_SIGMA_ON_A)
        cb = build_r_alpha_circuit(alpha, VARIANT_SIGMA_ON_B)
        assert np.linalg.norm(ck.choi - ca.choi) <= 1e-9
        assert np.linalg.norm(ca.choi - cb.choi) <= 1e-9


def test_realization_route_agrees_both_directions():
    for alpha in ALPHA_GRID:
        ck = build_r_alpha_kraus(alpha)
        for direction in ("B_to_A", "A_to_B"):
            cr = build_r_alpha_realization(alpha, direction)
            assert np.max(np.abs(cr.choi - ck.choi)) <= 1e-12
            assert cr.in_layout.labels == IN_LAYOUT.labels
            assert cr.out_layout.labels == OUT_LAYOUT.labels


def test_realization_spec_is_well_formed():
    sender, receiver = realization_spec(0.25)
    assert sender.in_layout.dims[-1] == 4  # the shared ancilla half
    assert sender.out_layout.dims[-1] == receiver.in_layout.dims[0] == 4  # the message
    sender.validate()
    receiver.validate()
    build_realization_cc("B_to_A", sender, receiver).validate()
    # the receiver is built once per direction, shared and read-only
    assert realization_spec(0.75)[1] is receiver
    with pytest.raises(ValueError, match="read-only"):
        receiver.choi[0, 0] = 1


def test_gate_products_are_built_once_and_read_only():
    for p in ("A", "B"):
        for fire in (False, True):
            g = counterexample._gates(p, fire)
            assert counterexample._gates(p, fire) is g
            assert np.array_equal(g @ g.T, np.eye(8))  # a 0/1 permutation
            with pytest.raises(ValueError, match="read-only"):
                g[0, 0] = 1


def test_realization_direction_checked():
    with pytest.raises(ValueError):
        realization_spec(0.25, "sideways")


# ---------------------------------------------------------------------------
# exact parity with the step-by-step simulations
#
# Every gate of the circuit is a 0/1 permutation, so the closed form and the
# circuit route's gather must reproduce these simulations entry for entry,
# not just to a tolerance.

P0 = np.diag([1, 0]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)


def w_pair(alpha):
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(alpha), np.sqrt(1.0 - alpha)
    return v


def fire_gate():
    """sigma_x on the system wire iff the W wire is 1; ordering (W, system)."""
    return kron(P1, pauli("x")) + kron(P0, np.eye(2))


def kraus_by_state_vector(alpha):
    """The Kraus operators by simulating the circuit on an 8-wire state vector."""
    lay8 = layout("A", "B", "Ain", "Bin", "X_A", "X_B", "W_A", "W_B")
    vec_ab = np.eye(4, dtype=complex).reshape(-1)  # |I>> on (A,B | Ain,Bin)
    full = np.kron(np.kron(vec_ab, max_entangled_vec(2, normalized=True)), w_pair(alpha))
    cs = controlled_swap(2)
    phi = embed(cs, ["W_A", "A", "X_A"], lay8) @ embed(cs, ["W_B", "B", "X_B"], lay8) @ full
    lay6 = lay8.drop(["X_A", "X_B"])
    sigma = embed(fire_gate(), ["W_A", "A"], lay6)
    ks = []
    for x, bra in enumerate(np.eye(4, dtype=complex)):
        kv = vector_bra_contract(phi, lay8, ["X_A", "X_B"], bra)
        if x == 3:
            kv = sigma @ kv
        kv, _ = permute_vector(kv, lay6, ["A", "W_A", "W_B", "B", "Ain", "Bin"])
        ks.append(kv.reshape(16, 4))
    return ks


def instrument_by_matrix_units(alpha, variant):
    """The circuit instrument, simulated on each matrix unit of the input."""
    lay6 = layout("A", "B", "X_A", "X_B", "W_A", "W_B")
    phi2, psi = max_entangled_vec(2, normalized=True), w_pair(alpha)
    ancillas = kron(np.outer(phi2, phi2.conj()), np.outer(psi, psi.conj()))
    cs = controlled_swap(2)
    e_op = embed(cs, ["W_A", "A", "X_A"], lay6) @ embed(cs, ["W_B", "B", "X_B"], lay6)
    lay4 = lay6.drop(["X_A", "X_B"])
    side = ["W_A", "A"] if variant == VARIANT_SIGMA_ON_A else ["W_B", "B"]
    sigma = embed(fire_gate(), side, lay4)
    branches = []
    for x, bra in enumerate(np.eye(4, dtype=complex)):

        def fn(rho, bra=bra, fire=(x == 3)):
            s = e_op @ kron(rho, ancillas) @ e_op.conj().T
            s = permute_to(s, lay6, ["X_A", "X_B", "A", "B", "W_A", "W_B"])[0]
            s = kron(bra.conj().reshape(1, 4), np.eye(16)) @ s @ kron(bra.reshape(4, 1), np.eye(16))
            if fire:
                s = sigma @ s @ sigma.conj().T
            return permute_to(s, lay4, OUT_LAYOUT.labels)[0]

        branches.append(choi_from_map(fn, IN_LAYOUT, OUT_LAYOUT).choi)
    return outcome_stack(branches, OUT_LAYOUT.total_dim, IN_LAYOUT.total_dim)


def _cp_map(kraus, in_layout, out_layout):
    """Choi of rho -> sum_k K rho K†, with no trace-preservation check."""
    vs = np.array([np.asarray(k, dtype=complex).reshape(-1) for k in kraus])
    return Channel(vs.T @ vs.conj(), in_layout, out_layout)


def realization_spec_by_links(alpha, direction="B_to_A"):
    """The one-round realization with every gate its own single-Kraus channel,
    chained through the link product: 25 channels and 18 links per call."""
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


def test_kraus_operators_equal_state_vector_simulation():
    for alpha in PARITY_ALPHAS:
        for got, want in zip(kraus_operators(alpha), kraus_by_state_vector(alpha), strict=True):
            assert np.array_equal(got, want), alpha


@pytest.mark.parametrize("variant", [VARIANT_SIGMA_ON_A, VARIANT_SIGMA_ON_B])
def test_circuit_equals_matrix_unit_simulation(variant):
    for alpha in PARITY_ALPHAS:
        ins = circuit_instrument(alpha, variant)
        want = instrument_by_matrix_units(alpha, variant)
        assert np.array_equal(ins.choi, want), alpha
        lay = choi_layout(ins.out_layout, ins.in_layout)
        traced = ptrace(want, lay, [ins.out_layout.labels[-1] + OUT_TAG])
        assert np.array_equal(build_r_alpha_circuit(alpha, variant).choi, traced), alpha


@pytest.mark.parametrize("direction", ["B_to_A", "A_to_B"])
def test_realization_spec_equals_link_chain(direction):
    for alpha in PARITY_ALPHAS:
        sender, receiver = realization_spec(alpha, direction)
        want_s, want_r = realization_spec_by_links(alpha, direction)
        assert np.array_equal(sender.choi, want_s.choi), alpha
        assert np.array_equal(receiver.choi, want_r.choi), alpha
        assert sender.in_layout == want_s.in_layout and sender.out_layout == want_s.out_layout
        assert receiver.in_layout == want_r.in_layout
        assert receiver.out_layout == want_r.out_layout
        want = build_realization_cc(direction, want_s, want_r).choi
        assert np.array_equal(build_r_alpha_realization(alpha, direction).choi, want), alpha


# ---------------------------------------------------------------------------
# the entry map: read off the circuit's ket operators once per variant, then a
# gather per call

VARIANTS = [VARIANT_SIGMA_ON_A, VARIANT_SIGMA_ON_B]
MAP_ALPHAS = [0.0, 1e-6, 1.0 / 6.0, 0.5, 0.999999, 1.0]


@pytest.fixture
def cold_entry_map():
    counterexample._entry_map.cache_clear()
    yield
    counterexample._entry_map.cache_clear()


@pytest.mark.parametrize("variant", VARIANTS)
def test_gather_equals_index_loop(variant):
    for alpha in PARITY_ALPHAS:
        got, want = counterexample._branches(alpha, variant), gather_by_index_loop(alpha, variant)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), alpha


@pytest.mark.parametrize("variant", VARIANTS)
def test_first_and_later_calls_agree(variant, cold_entry_map):
    for alpha in MAP_ALPHAS:
        counterexample._entry_map.cache_clear()
        first = circuit_instrument(alpha, variant).choi
        assert np.array_equal(circuit_instrument(alpha, variant).choi, first), alpha


def test_warm_calls_do_not_simulate(monkeypatch, cold_entry_map):
    warm = {v: circuit_instrument(0.3, v).choi for v in VARIANTS}

    def no_gate(d):
        raise AssertionError("derived the entry map again after warm-up")

    monkeypatch.setattr(counterexample, "controlled_swap", no_gate)
    for v in VARIANTS:
        assert np.array_equal(circuit_instrument(0.3, v).choi, warm[v])
        circuit_instrument(0.7, v).validate()


def test_entry_map_is_read_only():
    q, flat = counterexample._entry_map(VARIANT_SIGMA_ON_A)
    assert q.shape == (4, 64)
    assert flat.shape == (4, 64, 64) and flat.dtype == np.int32
    with pytest.raises(ValueError):
        q[0, 0] = 0
    with pytest.raises(ValueError):
        flat[0, 0, 0] = 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_non_permutation_gate_is_rejected(variant, monkeypatch, cold_entry_map):
    # a Hadamard on each W wire before its controlled swap mixes entries,
    # so the outcome operators hold entries other than 0 and 1
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    monkeypatch.setattr(counterexample, "controlled_swap",
                        lambda d: kron(hadamard, np.eye(d * d)) @ controlled_swap(d))
    for route in (circuit_instrument, build_r_alpha_circuit):
        with pytest.raises(ChannelError, match="does not just move"):
            route(0.3, variant)


@pytest.mark.parametrize("variant", VARIANTS)
def test_phase_gate_is_rejected(variant, monkeypatch, cold_entry_map):
    # a sign on each W wire's 1 moves every entry as the circuit does but
    # flips some, so the outcome operators hold -1s
    monkeypatch.setattr(counterexample, "controlled_swap",
                        lambda d: kron(np.diag([1, -1]), np.eye(d * d)) @ controlled_swap(d))
    for route in (circuit_instrument, build_r_alpha_circuit):
        with pytest.raises(ChannelError, match="does not just move"):
            route(0.3, variant)


def test_circuit_route_builds_no_instrument(monkeypatch):
    # the channel is the sum of the gathered branches: no outcome wire is
    # stacked and traced back out
    def no_instrument(*args):
        raise AssertionError("built the instrument")

    monkeypatch.setattr(counterexample, "outcome_stack", no_instrument)
    for v in VARIANTS:
        build_r_alpha_circuit(0.3, v).validate()


# ---------------------------------------------------------------------------
# boundary members


def test_alpha_one_passes_inputs_through():
    # W pair is |00>: no swap ever fires, the input emerges unchanged on the
    # A and B wires with the W wires in |00>.
    c = build_r_alpha_kraus(1.0)
    rng = np.random.default_rng(5)
    rho = random_density(rng, 4)
    out = apply(c, rho)
    w00 = np.zeros((4, 4), dtype=complex)
    w00[0, 0] = 1
    lay = layout("A", "B", "W_A", "W_B")
    want = kron(rho, w00)
    want_perm, _ = permute_to(want, lay, ["A", "W_A", "W_B", "B"])
    assert np.allclose(out, want_perm)


def test_alpha_zero_outputs_shared_pair_with_conditional_flip():
    # W pair is |11>: both swaps always fire, the output A/B wires carry the
    # shared pair, flipped on A exactly when both measured inputs are 1.
    c = build_r_alpha_kraus(0.0)
    out_lay = OUT_LAYOUT
    for a_bit, b_bit in [(0, 0), (1, 1)]:
        rho_in = np.zeros((4, 4), dtype=complex)
        rho_in[2 * a_bit + b_bit, 2 * a_bit + b_bit] = 1
        out = apply(c, rho_in)
        ab = ptrace(out, out_lay, ["W_A", "W_B"])
        phi = max_entangled_vec(2, normalized=True)
        pair = np.outer(phi, phi.conj())
        if a_bit and b_bit:
            flip = kron(pauli("x"), np.eye(2))
            pair = flip @ pair @ flip.conj().T
        assert np.allclose(ab, pair)


def test_nosignaling_across_alpha_grid():
    for alpha in ALPHA_GRID:
        c = build_r_alpha_kraus(alpha)
        v = signaling_verdict(c, ["A"], ["A", "W_A"], ["B"], ["W_B", "B"])
        assert v.a_to_b and v.b_to_a
        assert max(v.residual_a, v.residual_b) <= 1e-9
