"""The two-qubit-in, four-qubit-out channel family: closed-form Kraus route,
circuit-simulation route, and the one-round classical-communication route
must produce the same Choi operator; boundary members have known behavior."""
import numpy as np
import pytest

from nosigchan.tensor import kron, layout, max_entangled_vec, pauli, ptrace
from nosigchan.channels import OUT_TAG, choi_layout
from nosigchan.nosignal import build_realization_cc, signaling_verdict
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
from conftest import apply, random_density

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
        with pytest.raises(ValueError):
            build_r_alpha_kraus(bad)
        with pytest.raises(ValueError):
            circuit_instrument(bad)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        circuit_instrument(0.5, "sigma_on_C")


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


def test_realization_direction_checked():
    with pytest.raises(ValueError):
        realization_spec(0.25, "sideways")


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
    want_perm = np.zeros_like(want)
    from nosigchan.tensor import permute_to

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
