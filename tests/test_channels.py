"""Channels as Choi operators: construction routes, application, composition,
Kraus round trips, and instruments as channels with a classical outcome wire."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nosigchan import channels
from nosigchan.counterexample import IN_LAYOUT, OUT_LAYOUT, build_r_alpha_kraus, kraus_operators
from nosigchan.tensor import SystemLayout, eigh, kron, layout, max_entangled_vec, permute_to, ptrace
from nosigchan.channels import (
    OUT_TAG,
    Channel,
    ChannelError,
    channel_from_kraus,
    choi_layout,
    kraus_from_choi,
    link,
    outcome_stack,
    tp_residual,
    unitary_channel,
)
from conftest import (OUTCOME, PARITY_ALPHAS, apply, choi_from_map, identity_channel,
                      kraus_by_eigenpairs, prepare_channel, random_cptp, random_density,
                      random_instrument)


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kraus_apply(ks, rho):
    return sum(k @ rho @ k.conj().T for k in ks)


# ---------------------------------------------------------------------------
# basic invariants


def test_identity_channel():
    lay = layout(("S", 3))
    c = identity_channel(lay).validate()
    v = max_entangled_vec(3)
    assert np.allclose(c.choi, np.outer(v, v.conj()))
    assert np.isclose(np.trace(c.choi), 3.0)  # unnormalized convention
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert np.allclose(apply(c, rho), rho)


def test_choi_layout_is_worked_out_once_per_pair():
    o, i = layout("A", ("M", 3)), layout("B")
    lay = choi_layout(o, i)
    assert lay.labels == ("A#out", "M#out", "B#in") and lay.dims == (2, 3, 2)
    assert choi_layout(o, i) is lay
    assert choi_layout(layout("A", ("M", 3)), layout("B")) is lay  # equal layouts, one entry


def test_unitary_channel(rng):
    u = random_unitary(rng, 2)
    c = unitary_channel(u, layout("S")).validate()
    rho = random_density(rng, 2)
    assert np.allclose(apply(c, rho), u @ rho @ u.conj().T)


def test_choi_shape_checked():
    with pytest.raises(ChannelError):
        Channel(np.eye(3), layout("A"), layout("A"))


def test_validate_rejects_non_tp():
    lay = layout("A")
    c = Channel(0.5 * identity_channel(lay).choi, lay, lay)
    with pytest.raises(ChannelError):
        c.validate()
    assert tp_residual(c.choi, lay, lay) == pytest.approx(0.5)


def test_validate_rejects_non_psd():
    lay = layout("A")
    m = np.diag([1.0, -0.5, 1.0, 0.5]).astype(complex)
    with pytest.raises(ChannelError):
        Channel(m, lay, lay).validate()


def test_channel_from_kraus_checks_completeness():
    with pytest.raises(ChannelError):
        channel_from_kraus([0.5 * np.eye(2)], layout("A"), layout("A"))
    with pytest.raises(ChannelError):
        channel_from_kraus([], layout("A"), layout("A"))
    with pytest.raises(ChannelError):
        channel_from_kraus([np.eye(3)], layout("A"), layout("A"))


def test_channel_from_kraus_takes_a_stacked_array(rng):
    c = random_cptp(rng, layout("I", ("J", 3)), layout(("O", 3)))
    for ks, ins, outs in ((kraus_from_choi(c), c.in_layout, c.out_layout),
                          (kraus_operators(0.3), IN_LAYOUT, OUT_LAYOUT)):
        want = channel_from_kraus(list(ks), ins, outs).choi
        assert np.array_equal(channel_from_kraus(np.array(ks), ins, outs).choi, want)
    for empty in ([], np.empty((0, 2, 2))):
        with pytest.raises(ChannelError, match="empty Kraus set"):
            channel_from_kraus(empty, layout("A"), layout("A"))


# ---------------------------------------------------------------------------
# Kraus round trips


def test_kraus_round_trip(rng):
    for di, do in ((2, 2), (3, 2), (2, 4)):
        c = random_cptp(rng, layout(("I", di)), layout(("O", do)))
        ks = kraus_from_choi(c)
        back = channel_from_kraus(ks, c.in_layout, c.out_layout)
        assert np.max(np.abs(back.choi - c.choi)) <= 1e-8
        rho = random_density(rng, di)
        assert np.allclose(apply(c, rho), kraus_apply(ks, rho))


def _wire_dims(prefix):
    dims = st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda ds: math.prod(ds) <= 12)
    return dims.map(lambda ds: SystemLayout(tuple((f"{prefix}{k}", d) for k, d in enumerate(ds))))


@settings(max_examples=60, deadline=None)
@given(_wire_dims("I"), _wire_dims("O"), st.data(), st.integers(0, 2**32 - 1))
def test_kraus_round_trip_on_random_layouts_and_ranks(ins, outs, data, seed):
    di, do = ins.total_dim, outs.total_dim
    rank = data.draw(st.integers(-(-di // do), di * do), label="Kraus rank")
    c = random_cptp(np.random.default_rng(seed), ins, outs, n_kraus=rank)
    back = channel_from_kraus(np.array(kraus_from_choi(c)), c.in_layout, c.out_layout)
    assert np.max(np.abs(back.choi - c.choi)) <= 1e-12


def _same_kraus(got, want):
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def test_kraus_from_choi_equals_eigenpair_loop(rng):
    for rank in range(1, 17):
        c = random_cptp(rng, layout("A", "B"), layout("A", "B"), n_kraus=rank)
        assert _same_kraus(kraus_from_choi(c), kraus_by_eigenpairs(c)), rank
    for alpha in PARITY_ALPHAS:
        c = build_r_alpha_kraus(alpha)
        assert _same_kraus(kraus_from_choi(c), kraus_by_eigenpairs(c)), alpha


def test_kraus_cutoff_is_strict():
    # eigenvalues exactly at the cutoff and just above it: only the first is dropped
    cut = channels.KRAUS_CUTOFF
    c = Channel(np.diag([0.75, 0.25 - 3 * cut, cut, 2 * cut]).astype(complex), layout("I"), layout("O"))
    assert cut in eigh(c.choi)[0]
    ks = kraus_from_choi(c)
    assert len(ks) == 3
    assert _same_kraus(ks, kraus_by_eigenpairs(c))


def test_apply_matches_kraus_action(rng):
    u = random_unitary(rng, 3)
    ks = [u @ np.diag([1, 0, 0]), u @ np.diag([0, 1, 0]), u @ np.diag([0, 0, 1])]
    c = channel_from_kraus(ks, layout(("S", 3)), layout(("S", 3)))
    rho = random_density(rng, 3)
    assert np.allclose(apply(c, rho), kraus_apply(ks, rho))


def test_choi_from_map_matches_unitary(rng):
    u = random_unitary(rng, 2)
    lay = layout("S")
    c1 = unitary_channel(u, lay)
    c2 = choi_from_map(lambda rho: u @ rho @ u.conj().T, lay, lay)
    assert np.allclose(c1.choi, c2.choi)


def test_prepare_channel(rng):
    sigma = random_density(rng, 3)
    c = prepare_channel(sigma, layout(("O", 3)), layout(("I", 2))).validate()
    rho = random_density(rng, 2)
    assert np.allclose(apply(c, rho), sigma)
    assert np.allclose(c.choi, kron(sigma, np.eye(2)))


# ---------------------------------------------------------------------------
# composition


def test_compose_par_matches_pointwise(rng):
    a = random_cptp(rng, layout(("Ai", 2)), layout(("Ao", 3)))
    b = random_cptp(rng, layout(("Bi", 2)), layout(("Bo", 2)))
    c = link(a, b, ()).validate()
    assert c.in_layout.labels == ("Ai", "Bi")
    assert c.out_layout.labels == ("Ao", "Bo")
    ra, rb = random_density(rng, 2), random_density(rng, 2)
    assert np.allclose(apply(c, kron(ra, rb)), kron(apply(a, ra), apply(b, rb)))


def test_compose_par_with_identity_is_embedding(rng):
    a = random_cptp(rng, layout("Ai"), layout("Ao"))
    c = link(a, identity_channel(layout("B")), ())
    rho = random_density(rng, 4)
    lay = layout("Ai", "B")
    # apply then trace out B equals applying a to the A marginal
    out = apply(c, rho)
    out_lay = layout("Ao", "B")
    assert np.allclose(
        ptrace(out, out_lay, ["B"]), apply(a, ptrace(rho, lay, ["B"]))
    )


def test_compose_par_stays_parallel_when_labels_coincide(rng):
    a = random_cptp(rng, layout("X"), layout("Y"))
    b = random_cptp(rng, layout("Y"), layout(("Z", 3)))
    c = link(a, b, ()).validate()
    assert c.in_layout.labels == ("X", "Y")
    assert c.out_layout.labels == ("Y", "Z")
    ra, rb = random_density(rng, 2), random_density(rng, 2)
    assert np.allclose(apply(c, kron(ra, rb)), kron(apply(a, ra), apply(b, rb)))


# ---------------------------------------------------------------------------
# link product against a matrix-unit oracle


def apply_first(c, rho, rest):
    """(c x id_rest)(rho) for rho on (c.in, rest), one block at a time."""
    r = rho.reshape(c.d_in, rest, c.d_in, rest)
    out = np.zeros((c.d_out, rest, c.d_out, rest), dtype=complex)
    for q in range(rest):
        for q2 in range(rest):
            out[:, q, :, q2] = apply(c, r[:, q, :, q2])
    return out.reshape(c.d_out * rest, c.d_out * rest)


def reorder(m, legs, dims, target):
    lay = SystemLayout(tuple(zip(legs, dims)))
    return permute_to(m, lay, target)[0]


def link_oracle(first, second, over):
    """The link product rebuilt with choi_from_map and apply."""
    p = first.out_layout.drop(over)
    q = second.in_layout.drop(over)
    p1 = ["1" + l for l in p.labels]
    o2 = ["2" + l for l in second.out_layout.labels]
    mid = ["1" + l for l in first.out_layout.labels] + ["2" + l for l in q.labels]
    fed = ["1" + l if l in over else "2" + l for l in second.in_layout.labels]

    def fn(rho):
        s = apply_first(first, rho, q.total_dim)  # (first.out, Q)
        s = reorder(s, mid, first.out_layout.dims + q.dims, fed + p1)
        t = apply_first(second, s, p.total_dim)  # (second.out, P)
        return reorder(t, o2 + p1, second.out_layout.dims + p.dims, p1 + o2)

    return choi_from_map(fn, first.in_layout.concat(q), p.concat(second.out_layout))


def assert_links_like_oracle(first, second, over, in_labels, out_labels):
    got = link(first, second, over)
    assert got.in_layout.labels == in_labels
    assert got.out_layout.labels == out_labels
    assert np.max(np.abs(got.choi - link_oracle(first, second, over).choi)) <= 1e-12


def test_link_serial_over_one_leg(rng):
    a = random_cptp(rng, layout(("I", 3)), layout("M"))
    b = random_cptp(rng, layout("M"), layout(("O", 3)))
    assert_links_like_oracle(a, b, ["M"], ("I",), ("O",))


def test_link_parallel(rng):
    a = random_cptp(rng, layout("I"), layout(("P", 3)))
    b = random_cptp(rng, layout(("Q", 3)), layout("O"))
    assert_links_like_oracle(a, b, (), ("I", "Q"), ("P", "O"))


def test_link_partial_keeps_pass_through_legs(rng):
    a = random_cptp(rng, layout("I", ("J", 3)), layout(("M", 3), "P", "N"))
    b = random_cptp(rng, layout("N", "Q", ("M", 3)), layout(("O", 3)))
    assert_links_like_oracle(a, b, ["M", "N"], ("I", "J", "Q"), ("P", "O"))


def test_link_feeds_a_state(rng):
    sigma = random_density(rng, 6)
    state = Channel(sigma, SystemLayout(()), layout(("S", 3), "T"))
    b = random_cptp(rng, layout(("S", 3), "U"), layout("O"))
    assert_links_like_oracle(state, b, ["S"], ("U",), ("T", "O"))


def test_link_rejects_unwired_or_mismatched_legs(rng):
    a = random_cptp(rng, layout("I"), layout(("M", 3)))
    b = random_cptp(rng, layout("M"), layout("O"))
    c = random_cptp(rng, layout(("M", 3)), layout("O"))
    with pytest.raises(ChannelError):
        link(a, b, ["M"])  # dimension 3 vs 2
    with pytest.raises(ChannelError):
        link(a, c, ["Z"])  # on neither side
    with pytest.raises(ChannelError):
        link(a, c, ["I"])  # an input of first, not an output
    with pytest.raises(ChannelError, match="'M' twice"):
        link(a, c, ["M", "M"])  # a leg wired twice
    x = random_cptp(rng, layout("X", "Y"), layout("A", "B"))
    y = random_cptp(rng, layout("A", "B"), layout("Z", "W"))
    for over in ("AB", "A"):  # a string is not a sequence of labels
        with pytest.raises(ChannelError, match="string"):
            link(x, y, over)
    for entry in (("A",), ("A", "B", "A"), ("A", 1), 1, None):  # not a label or two labels
        with pytest.raises(ChannelError, match="pair"):
            link(x, y, [entry])
    two = random_cptp(rng, layout("I"), layout(("M", 3), ("P", 3)))
    fed = random_cptp(rng, layout(("N", 3), ("L", 3), "K"), layout("O"))
    for wire in (("Z", "N"), ("N", "N"),  # unknown output; an input of second, not an output
                 ("M", "Z"), ("M", "I")):  # unknown input; an input of first, not of second
        with pytest.raises(ChannelError, match="not an output of first and an input of second"):
            link(two, fed, [wire])
    with pytest.raises(ChannelError, match="dimension 3 vs 2"):
        link(two, fed, [("M", "K")])
    with pytest.raises(ChannelError, match="'M' twice"):  # an output wired twice
        link(two, fed, [("M", "N"), ("M", "L")])
    with pytest.raises(ChannelError, match="'L' twice"):  # an input wired twice
        link(two, fed, [("M", "L"), ("P", "L")])


@st.composite
def link_legs(draw):
    """(first's inputs, first's outputs, second's inputs, second's outputs, over):
    up to two wired legs and up to two pass-through legs on each side (first's
    inputs I and unwired outputs P, second's unwired inputs Q and outputs O),
    dimensions 1 to 3, with both wired orders and `over` shuffled.  First's
    wired outputs are W0, W1; second names the inputs they feed at random
    among W0, W1, V0 and V1, so a wire keeps its name, takes another or swaps
    names with the other wire.  `over` holds the (output, input) pairs."""
    dim = st.integers(1, 3)
    dims = draw(st.lists(dim, max_size=2))
    names = draw(st.permutations(["W0", "W1", "V0", "V1"]))
    wired = [(f"W{k}", d) for k, d in enumerate(dims)]
    fed = [(names[k], d) for k, d in enumerate(dims)]
    one = draw(st.lists(st.tuples(st.sampled_from("IP"), dim), max_size=2))
    two = draw(st.lists(st.tuples(st.sampled_from("QO"), dim), max_size=2))
    legs = [(f"{kind}{k}", d) for k, (kind, d) in enumerate(one + two)]

    def kind(k):
        return tuple(leg for leg in legs if leg[0][0] == k)

    return (kind("I"), tuple(draw(st.permutations(wired + list(kind("P"))))),
            tuple(draw(st.permutations(fed + list(kind("Q"))))), kind("O"),
            tuple(draw(st.permutations([(w, f) for (w, _), (f, _) in zip(wired, fed)]))))


@settings(max_examples=40, deadline=None)
@given(link_legs(), st.integers(0, 2**32 - 1))
# `over` in neither operand's order, wired legs between pass-through ones, a dimension-1 wire
@example(((("I0", 2),), (("W0", 1), ("P1", 3), ("W1", 2)), (("W0", 1), ("Q2", 2), ("W1", 2)),
          (("O3", 2),), (("W1", "W1"), ("W0", "W0"))), 1)
# a state feeding two wires whose names cross
@example(((), (("W1", 3), ("W0", 2), ("P0", 2)), (("W1", 2), ("Q1", 3), ("W0", 3)),
          (("O2", 2),), (("W0", "W1"), ("W1", "W0"))), 2)
def test_link_matches_oracle_on_random_legs(legs, seed):
    ins1, outs1, ins2, outs2, over = legs
    # the matrix-unit oracle's cost grows with the pass-through dimensions
    assume(math.prod(d for l, d in outs1 + ins2 if l[0] in "PQ") <= 9)
    rng = np.random.default_rng(seed)
    first = random_cptp(rng, SystemLayout(ins1), SystemLayout(outs1))
    second = random_cptp(rng, SystemLayout(ins2), SystemLayout(outs2))
    got = link(first, second, [o if o == i else (o, i) for o, i in over])  # a label when names agree
    assert got.in_layout.labels == tuple(l for l, _ in ins1 + ins2 if l[0] in "IQ")
    assert got.out_layout.labels == tuple(l for l, _ in outs1 + outs2 if l[0] in "PO")
    # the oracle wires by name: second with each wired input named as the output feeding it
    back = {i: o for o, i in over}
    named = Channel(second.choi, SystemLayout(tuple((back.get(l, l), d) for l, d in ins2)),
                    second.out_layout)
    want = link_oracle(first, named, [o for o, _ in over])
    assert np.max(np.abs(got.choi - want.choi)) <= 1e-12


def test_link_plan_is_worked_out_once_per_signature(rng, monkeypatch):
    a = random_cptp(rng, layout("I"), layout(("M", 3), "P"))
    b = random_cptp(rng, layout(("M", 3)), layout("O"))
    link(a, b, ["M"])
    before = channels._link_plan.cache_info()
    a2 = random_cptp(rng, a.in_layout, a.out_layout)
    got = link(a2, b, ["M"])  # same layouts and legs, other Choi
    after = channels._link_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    for _ in range(2):  # an exception is not cached
        with pytest.raises(ChannelError, match="'M' twice"):
            link(a, b, ["M", "M"])
    assert channels._link_plan.cache_info().currsize == after.currsize
    # the uncached plan gives the same bytes
    monkeypatch.setattr(channels, "_link_plan", channels._link_plan.__wrapped__)
    assert np.array_equal(got.choi, link(a2, b, ["M"]).choi)


# ---------------------------------------------------------------------------
# instruments


def _branches(ins: Channel):
    """The branch Chois B_x, read off the diagonal blocks of the outcome wire."""
    n = ins.out_layout.dims[-1]
    do, di = ins.d_out // n, ins.d_in
    blocks = ins.choi.reshape(do, n, di, do, n, di)
    return [blocks[:, x, :, :, x, :].reshape(do * di, do * di) for x in range(n)]


def _trace_outcome(ins: Channel) -> Channel:
    lay = choi_layout(ins.out_layout, ins.in_layout)
    return Channel(ptrace(ins.choi, lay, [OUTCOME + OUT_TAG]), ins.in_layout,
                   ins.out_layout.drop([OUTCOME]))


def test_instrument_sum_and_validate(rng):
    ins = random_instrument(rng, layout("I"), layout("O"), n_outcomes=3).validate()
    assert ins.out_layout.labels == ("O", OUTCOME)
    b0, b1, b2 = _branches(ins)
    # tracing the outcome wire out is the channel the branches sum to, exactly
    c = _trace_outcome(ins).validate()
    assert np.array_equal(c.choi, b0 + b1 + b2)


def test_outcome_stack_round_trip(rng):
    chois = [random_cptp(rng, layout("I"), layout(("O", 3))).choi / 2 for _ in range(2)]
    ins = Channel(outcome_stack(chois, 3, 2), layout("I"), layout(("O", 3), (OUTCOME, 2)))
    assert all(np.array_equal(b, c) for b, c in zip(_branches(ins), chois))
    # every entry off the diagonal blocks is exactly zero
    assert np.count_nonzero(ins.choi) == sum(np.count_nonzero(c) for c in chois)


def test_instrument_outcome_count_checked():
    lay = layout("I")
    c = identity_channel(lay)
    with pytest.raises(ChannelError):  # a branch of the wrong shape
        outcome_stack([c.choi, np.eye(2)], 2, 2)
    with pytest.raises(ChannelError):  # two branches on a three-outcome wire
        Channel(outcome_stack([c.choi, c.choi], 2, 2), lay, lay.concat(layout((OUTCOME, 3))))


def test_instrument_sum_rejects_non_tp():
    lay = layout("I")
    half = 0.5 * identity_channel(lay).choi
    ins = Channel(outcome_stack([half], 2, 2), lay, lay.concat(layout((OUTCOME, 1))))
    with pytest.raises(ChannelError, match="not trace-preserving"):
        ins.validate()


def test_validate_rejects_instrument_with_non_cp_branch():
    # B_0 = J/2 + eps Q and B_1 = J/2 - eps Q sum to the identity channel J,
    # but B_1 has the eigenvalue -eps on |01>, which is orthogonal to |I>>.
    lay = layout("I")
    j = identity_channel(lay).choi
    q = np.zeros((4, 4), dtype=complex)
    q[1, 1] = 1
    eps = 1e-3
    Channel(j / 2 + eps * q + j / 2 - eps * q, lay, lay).validate()
    ins = Channel(outcome_stack([j / 2 + eps * q, j / 2 - eps * q], 2, 2), lay,
                  lay.concat(layout((OUTCOME, 2))))
    with pytest.raises(ChannelError, match="not completely positive"):
        ins.validate()


def test_branch_probabilities_are_the_outcome_diagonal(rng):
    ins = random_instrument(rng, layout(("I", 3)), layout("O"), n_outcomes=4)
    rho = random_density(rng, 3)
    probs = np.diag(apply(ins, rho)).reshape(2, 4).sum(axis=0).real
    want = [np.trace(apply(Channel(b, ins.in_layout, layout("O")), rho)).real
            for b in _branches(ins)]
    assert np.allclose(probs, want)
    assert np.isclose(probs.sum(), 1.0)
    # the outcome marginal is diagonal: the wire carries no coherence
    out = apply(ins, rho)
    marg = ptrace(out, ins.out_layout, ["O"])
    assert np.array_equal(marg, np.diag(np.diag(marg)))


def test_random_cptp_is_valid(rng):
    for _ in range(5):
        random_cptp(rng, layout(("I", 3)), layout(("O", 2))).validate()


def test_random_instrument_branches_are_cp(rng):
    ins = random_instrument(rng, layout(("I", 2)), layout(("O", 3)), n_outcomes=2)
    for b in _branches(ins):
        w = np.linalg.eigvalsh(b)
        assert w.min() >= -1e-10
