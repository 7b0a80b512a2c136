"""Verdicts: PPT entanglement witness, CHSH against the Tsirelson bound, and
the two extremality certificates (among all channels, among no-signaling
channels)."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nosigchan.tensor import embed, layout, pauli, ptranspose
from nosigchan.channels import (
    Channel,
    channel_from_kraus,
    choi_layout,
    compose_par,
    identity_channel,
    unitary_channel,
)
from nosigchan.nosignal import NOSIGNAL_TOL, build_localizable, signaling_verdict
from nosigchan.counterexample import (
    IN_LAYOUT,
    OUT_LAYOUT,
    build_r_alpha_kraus,
)
from nosigchan.analysis import (
    CHSH_SLACK,
    EXTREMALITY_REL_TOL,
    PPT_TOL,
    TSIRELSON,
    analyze,
    chsh_value,
    extremality_rank,
    ns_face_dimension,
    ppt_min_eig,
)
from conftest import prepare_channel, random_cptp, random_density

R_WIRES = (["A"], ["A", "W_A"], ["B"], ["W_B", "B"])


# ---------------------------------------------------------------------------
# PPT witness


def test_identity_channel_choi_is_entangled():
    c = identity_channel(layout("S"))
    # Choi of the qubit identity is the (unnormalized) maximally entangled
    # projector; its partial transpose has minimum eigenvalue -1
    assert ppt_min_eig(c) == pytest.approx(-1.0, abs=1e-12)


def test_measure_and_reprepare_choi_is_ppt(rng):
    # a constant channel has Choi sigma (x) I: separable, PPT holds
    sigma = random_density(rng, 2)
    c = prepare_channel(sigma, layout("O"), layout("I"))
    assert ppt_min_eig(c) >= -1e-12


def test_ppt_min_eig_same_for_either_transposed_side():
    c = build_r_alpha_kraus(1.0 / 6.0)
    lay = choi_layout(c.out_layout, c.in_layout)
    out_labels = [l for l in lay.labels if l.endswith("#out")]
    w_out = np.linalg.eigvalsh(ptranspose(c.choi, lay, out_labels))
    assert ppt_min_eig(c) == pytest.approx(float(w_out.min()), abs=1e-12)


def test_r_one_sixth_violates_ppt():
    # independently verified by direct eigensolve of the partially
    # transposed 64 x 64 Choi: the minimum eigenvalue is about -0.36
    val = ppt_min_eig(build_r_alpha_kraus(1.0 / 6.0))
    assert val < -1e-6
    assert val == pytest.approx(-0.3596, abs=5e-4)


# ---------------------------------------------------------------------------
# CHSH


def test_chsh_requires_counterexample_layout(rng):
    c = random_cptp(rng, layout("A"), layout("Ap"))
    with pytest.raises(ValueError):
        chsh_value(c)


def test_chsh_closed_form_on_alpha_grid():
    for alpha in np.linspace(0.0, 1.0, 11):
        c = build_r_alpha_kraus(float(alpha))
        assert abs(chsh_value(c) - abs(4 - 6 * alpha)) <= 1e-9


def test_chsh_alpha_one_sixth_beats_tsirelson():
    val = chsh_value(build_r_alpha_kraus(1.0 / 6.0))
    assert val == pytest.approx(3.0, abs=1e-9)
    assert val > TSIRELSON


def chsh_by_trace(c):
    """The CHSH value as Tr[O R] over full 64 x 64 observables, built by embed."""
    lay = choi_layout(c.out_layout, c.in_layout)
    sz = pauli("z")
    zz = embed(sz, ["A#out"], lay) @ embed(sz, ["B#out"], lay)

    def corr(n, m):
        pn = np.zeros((2, 2), dtype=complex)
        pn[n, n] = 1
        pm = np.zeros((2, 2), dtype=complex)
        pm[m, m] = 1
        obs = zz @ embed(pn, ["A#in"], lay) @ embed(pm, ["B#in"], lay)
        return float(np.real(np.trace(obs @ c.choi)))

    return abs(corr(0, 0) + corr(0, 1) + corr(1, 0) - corr(1, 1))


def random_localizable(rng, d):
    ga = random_cptp(rng, layout("A", ("EA", d)), layout("A", "W_A"))
    gb = random_cptp(rng, layout("B", ("EB", d)), layout("W_B", "B"))
    return build_localizable(ga, gb, d)


def test_chsh_diagonal_read_equals_trace_oracle(rng):
    # The observables are diagonal, so the trace adds the same 64 weighted
    # diagonal entries in the same order: equality is exact, not approximate.
    channels = [build_r_alpha_kraus(float(a)) for a in np.linspace(0.0, 1.0, 41)]
    channels += [random_localizable(rng, d) for d in range(2, 7) for _ in range(4)]
    channels += [random_cptp(rng, IN_LAYOUT, OUT_LAYOUT) for _ in range(20)]
    for c in channels:
        assert chsh_value(c) == chsh_by_trace(c)


def isometry_channel(g, in_lay, out_lay):
    """Channel whose Kraus operators stack to the Q factor of g: CPTP for any g."""
    q, _ = np.linalg.qr(g)
    do = out_lay.total_dim
    ks = [q[i * do : (i + 1) * do] for i in range(q.shape[0] // do)]
    return channel_from_kraus(ks, in_lay, out_lay)


@st.composite
def localizable_channels(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n_kraus = draw(st.integers(2, 3))
    entries = arrays(np.float64, (2, 4 * n_kraus, 2 * d), elements=st.floats(-1, 1))
    pieces = []
    for in_lay, out_lay in (
        (layout("A", ("EA", d)), layout("A", "W_A")),
        (layout("B", ("EB", d)), layout("W_B", "B")),
    ):
        re, im = draw(entries)
        pieces.append(isometry_channel(re + 1j * im, in_lay, out_lay))
    return build_localizable(*pieces, d)


@settings(max_examples=30, deadline=None)
@given(localizable_channels())
def test_localizable_is_no_signaling_and_within_tsirelson(c):
    v = signaling_verdict(c, *R_WIRES)
    assert v.a_to_b and v.b_to_a
    assert chsh_value(c) <= TSIRELSON + CHSH_SLACK


def test_localizable_channels_respect_tsirelson(rng):
    for _ in range(5):
        c = random_localizable(rng, int(rng.integers(2, 4)))
        assert chsh_value(c) <= TSIRELSON + 1e-6


# ---------------------------------------------------------------------------
# extremality


def test_unitary_channel_is_extremal(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(g)
    c = unitary_channel(u, layout("S"))
    r, rank, full = extremality_rank(c)
    assert (r, rank, full) == (1, 1, True)


def _completely_depolarizing():
    ks = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for i in range(2):
        for j in range(2):
            ks[2 * i + j][i, j] = 1 / np.sqrt(2)
    return channel_from_kraus(ks, layout("I"), layout("O"))


def test_depolarizing_channel_is_not_extremal():
    # the constant map to the maximally mixed state is the uniform Pauli
    # mixture; its Kraus products collapse onto matrix units with matching
    # outer index, leaving rank 4 out of 16
    r, rank, full = extremality_rank(_completely_depolarizing())
    assert (r, rank, full) == (4, 4, False)


def test_extremality_rank_stable_under_reextraction():
    c = build_r_alpha_kraus(1.0 / 6.0)
    first = extremality_rank(c)
    from nosigchan.channels import kraus_from_choi

    rebuilt = channel_from_kraus(kraus_from_choi(c), c.in_layout, c.out_layout)
    assert extremality_rank(rebuilt) == first


def test_r_alpha_kraus_products_span_ten_dimensions():
    # The fire-branch Kraus operator has range orthogonal to both
    # single-swap branches (their output wires carry orthogonal shared-pair
    # states), so four products vanish identically and two more collapse
    # onto the identity; 10 of the 16 products are independent, at every
    # alpha.  A rank below 16 means the channel is a nontrivial mixture of
    # channels that need not be no-signaling.
    for alpha in (1.0 / 6.0, 0.37):
        r, rank, full = extremality_rank(build_r_alpha_kraus(alpha))
        assert (r, rank, full) == (4, 10, False)


def test_r_alpha_admits_explicit_decomposition():
    # Constructive witness for the rank deficiency: perturbing the Choi
    # along the vanished product direction stays CPTP both ways, exhibiting
    # the channel as the midpoint of two distinct channels.  Both of them
    # signal both ways, so the decomposition leaves the no-signaling set.
    c = build_r_alpha_kraus(1.0 / 6.0)
    from nosigchan.counterexample import kraus_operators

    ks = kraus_operators(1.0 / 6.0)
    v01 = ks[1].reshape(-1)
    v11 = ks[3].reshape(-1)
    m = np.outer(v11, v01.conj()) + np.outer(v01, v11.conj())
    for sign in (1.0, -1.0):
        end = Channel(c.choi + sign * 0.05 * m, c.in_layout, c.out_layout)
        end.validate()
        v = signaling_verdict(end, ["A"], ["A", "W_A"], ["B"], ["W_B", "B"])
        assert not v.a_to_b and not v.b_to_a


def _product_isometry(rng):
    ga = random_cptp(rng, layout("A"), layout("A", "W_A"), n_kraus=1)
    gb = random_cptp(rng, layout("B"), layout("W_B", "B"), n_kraus=1)
    return compose_par(ga, gb)


def test_r_alpha_is_extreme_among_no_signaling_channels():
    for alpha in (0.0, 0.3, 0.5):
        face = ns_face_dimension(build_r_alpha_kraus(alpha), *R_WIRES)
        assert (face.support_rank, face.face_dimension) == (4, 0)
        assert face.min_singular_value > 1e6 * face.tolerance


def test_product_of_isometries_is_extreme_among_no_signaling_channels(rng):
    face = ns_face_dimension(_product_isometry(rng), *R_WIRES)
    assert (face.support_rank, face.face_dimension) == (1, 0)


def test_mixture_of_no_signaling_channels_has_a_positive_face(rng):
    # both ends are localizable, hence no-signaling, so their midpoint
    # moves toward either end inside the no-signaling set
    p, q = _product_isometry(rng), _product_isometry(rng)
    mix = Channel((p.choi + q.choi) / 2, p.in_layout, p.out_layout)
    face = ns_face_dimension(mix, *R_WIRES)
    assert face.support_rank == 2
    assert face.face_dimension > 0


def test_each_no_signaling_direction_shrinks_the_face():
    # The PR box p(ab|xy) = [a ^ b == x & y] / 2 is the midpoint of the two
    # boxes a = r, b = r ^ xy (r = 0, 1), which signal A -> B only, and of
    # their mirror images, which signal B -> A only.  So either direction's
    # rows alone leave a strictly larger face than both together.
    p = np.zeros(16)
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    if a ^ b == x & y:
                        p[8 * a + 4 * b + 2 * x + y] = 0.5
    box = Channel(np.diag(p), layout("A", "B"), layout("Ap", "Bp"))
    a_rows, b_rows = (["A"], ["Ap"]), (["B"], ["Bp"])
    both = ns_face_dimension(box, *a_rows, *b_rows).face_dimension
    a_only = ns_face_dimension(box, *a_rows, [], []).face_dimension
    b_only = ns_face_dimension(box, [], [], *b_rows).face_dimension
    assert both < a_only and both < b_only


def test_face_without_no_signaling_rows_matches_choi_rank():
    for c, expected in ((build_r_alpha_kraus(1.0 / 6.0), 6), (_completely_depolarizing(), 12)):
        r, rank, _ = extremality_rank(c)
        face = ns_face_dimension(c, [], [], [], [])
        assert face.support_rank == r
        assert face.face_dimension == r * r - rank == expected


# ---------------------------------------------------------------------------
# aggregate report


def test_analyze_r_one_sixth():
    c = build_r_alpha_kraus(1.0 / 6.0)
    rep = analyze(c, ["A"], ["A", "W_A"], ["B"], ["W_B", "B"])
    assert rep.nosignaling.a_to_b and rep.nosignaling.b_to_a
    assert rep.ppt_violated and rep.ppt_min_eigenvalue < -1e-6
    assert rep.chsh_value == pytest.approx(3.0, abs=1e-9)
    assert rep.chsh_exceeds_tsirelson
    assert rep.n_kraus == 4
    assert rep.extremality_rank == 10 and not rep.extremality_full
    assert set(rep.tolerances) == {
        "nosignal_tol", "ppt_tol", "chsh_slack", "extremality_rel_tol",
    }


def test_analyze_skips_chsh_on_other_layouts(rng):
    c = random_cptp(rng, layout("A", "B"), layout("Ap", "Bp"))
    rep = analyze(c, ["A"], ["Ap"], ["B"], ["Bp"])
    assert rep.chsh_value is None
    assert rep.chsh_exceeds_tsirelson is None


def _leaves(x):
    if isinstance(x, dict):
        for v in x.values():
            yield from _leaves(v)
    else:
        yield x


@pytest.mark.parametrize("alpha", [0.0, 1.0 / 6.0, 0.3, 1.0])
def test_report_leaves_are_builtin_scalars(alpha, rng):
    # The CLI prints dataclasses.asdict(report) with json.dumps, which raises
    # on a NumPy bool; type() is strict, so a NumPy float fails here too.
    reports = [analyze(build_r_alpha_kraus(alpha), *R_WIRES)]
    c = random_cptp(rng, layout("A", "B"), layout("Ap", "Bp"))
    reports.append(analyze(c, ["A"], ["Ap"], ["B"], ["Bp"]))
    assert reports[1].chsh_value is None
    for rep in reports:
        tree = dataclasses.asdict(rep)
        assert {type(v) for v in _leaves(tree)} <= {bool, int, float, type(None)}
        json.dumps(tree)
        assert tree["tolerances"] == {
            "nosignal_tol": NOSIGNAL_TOL, "ppt_tol": PPT_TOL,
            "chsh_slack": CHSH_SLACK, "extremality_rel_tol": EXTREMALITY_REL_TOL,
        }
