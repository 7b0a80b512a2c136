"""Verdicts: PPT entanglement witness, CHSH against the Tsirelson bound, and
the two extremality certificates (among all channels, among no-signaling
channels)."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nosigchan.tensor import TensorError, embed, layout, pauli, ptranspose
from nosigchan.channels import (
    Channel,
    channel_from_kraus,
    choi_layout,
    kraus_from_choi,
    link,
    unitary_channel,
)
from nosigchan.nosignal import (
    NOSIGNAL_TOL,
    _factorization_deviation,
    build_localizable,
    signaling_verdict,
)
from nosigchan.counterexample import (
    IN_LAYOUT,
    OUT_LAYOUT,
    build_r_alpha_kraus,
)
from nosigchan.analysis import (
    CHSH_SLACK,
    _deviation_rows,
    EXTREMALITY_REL_TOL,
    PPT_TOL,
    TSIRELSON,
    analyze,
    chsh_value,
    extremality_rank,
    ns_face_dimension,
    ppt_min_eig,
)
from conftest import (
    face_dimension_by_basis,
    gram_rank,
    identity_channel,
    prepare_channel,
    random_cptp,
    random_density,
    reference_deviation,
)

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
    rebuilt = channel_from_kraus(kraus_from_choi(c), c.in_layout, c.out_layout)
    assert extremality_rank(rebuilt) == first


def _rank_by_gram(c):
    """The Gram route: eigenvalues of the r² x r² Gram matrix of the products."""
    ks = kraus_from_choi(c)
    rank = gram_rank([a.conj().T @ b for a in ks for b in ks], rel_tol=EXTREMALITY_REL_TOL)
    return len(ks), rank, rank == len(ks) ** 2


def test_extremality_rank_equals_gram_oracle(rng):
    cases = [build_r_alpha_kraus(a) for a in list(np.linspace(0.0, 1.0, 11)) + [1.0 / 6.0]]
    cases += [random_cptp(rng, IN_LAYOUT, OUT_LAYOUT, n_kraus=r) for r in (1, 2, 4, 8, 16)]
    cases += [_completely_depolarizing(), identity_channel(layout("S"))]
    for c in cases:
        assert extremality_rank(c) == _rank_by_gram(c)


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


def test_r_alpha_rank_holds_as_alpha_approaches_one():
    # Six products scale as 1 - alpha, far above rounding at these alpha.  A
    # cut on the Gram eigenvalues (1 - alpha)² dropped them from 0.99998 on
    # and reported rank 1, against face dimension 6 among all channels.  A
    # face read off unit-norm Kraus vectors (`face_dimension_by_basis`)
    # reads 5 at 1 - 3e-7, 1 - 3e-8 and 1 - 1e-8.
    alphas = (0.9999, 0.99998, 0.9999919239485958, 0.999999)
    for alpha in alphas + (1 - 3e-7, 1 - 1e-7, 1 - 3e-8, 1 - 1e-8):
        c = build_r_alpha_kraus(alpha)
        assert extremality_rank(c) == (4, 10, False), alpha
        assert ns_face_dimension(c, [], [], [], []).face_dimension == 6, alpha


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
    return link(ga, gb, ())


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


def _pr_box():
    """The PR box p(ab|xy) = [a ^ b == x & y] / 2 as a classical channel."""
    p = np.zeros(16)
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    if a ^ b == x & y:
                        p[8 * a + 4 * b + 2 * x + y] = 0.5
    return Channel(np.diag(p), layout("A", "B"), layout("Ap", "Bp"))


PR_BOX_ROWS = ((["A"], ["Ap"], ["B"], ["Bp"]), (["A"], ["Ap"], [], []), ([], [], ["B"], ["Bp"]))


def test_each_no_signaling_direction_shrinks_the_face():
    # The PR box is the midpoint of the two boxes a = r, b = r ^ xy
    # (r = 0, 1), which signal A -> B only, and of their mirror images,
    # which signal B -> A only.  So either direction's rows alone leave a
    # strictly larger face than both together.
    both, a_only, b_only = (ns_face_dimension(_pr_box(), *w).face_dimension for w in PR_BOX_ROWS)
    assert both < a_only and both < b_only


def test_face_rejects_labels_that_name_no_wire():
    c = build_r_alpha_kraus(0.2)
    for wires in ((["A"], ["A", "typo"], [], []), ([], ["typo"], [], []), (["A", "A"], [], [], [])):
        with pytest.raises(TensorError):
            ns_face_dimension(c, *wires)


def test_face_without_no_signaling_rows_matches_choi_rank():
    for c, expected in ((build_r_alpha_kraus(1.0 / 6.0), 6), (_completely_depolarizing(), 12)):
        r, rank, _ = extremality_rank(c)
        face = ns_face_dimension(c, [], [], [], [])
        assert face.support_rank == r
        assert face.face_dimension == r * r - rank == expected


def test_face_dimension_equals_hermitian_basis_oracle(rng):
    # Left out: 1 - alpha < 1e-6, where the oracle is the one that is wrong.
    # Three Choi eigenvalues there are nearly equal, about 1 - alpha, so their
    # eigenvectors carry rounding of order 1e-16 / (1 - alpha).  Scaled by
    # their square roots it stays far below the cut; on the oracle's
    # unit-norm vectors a zero singular value reads 1.6e-10 of the largest at
    # 1 - 3e-7, above the cut of 1e-10, and the face reads 5, not 6.
    alphas = list(np.linspace(0.0, 1.0, 41)) + [1e-6, 1.0 / 6.0, 0.123456789, 2.0 / 3.0]
    cases = [(build_r_alpha_kraus(float(a)), w) for a in alphas for w in (R_WIRES, ([],) * 4)]
    cases += [(random_cptp(rng, IN_LAYOUT, OUT_LAYOUT, n_kraus=r), R_WIRES) for r in (1, 2, 4, 8, 16)]
    cases += [(_pr_box(), w) for w in PR_BOX_ROWS]
    for c, wires in cases:
        face = ns_face_dimension(c, *wires)
        assert face.face_dimension == face_dimension_by_basis(c, *wires).face_dimension


def test_deviation_rows_are_the_verdicts_deviation(rng):
    # The face's no-signaling rows and `signaling_verdict` share no code; a
    # linear identity ties them.  Summed with weights X_ij, the rows of the
    # pairs (i, j) are the transposed deviation of D = sum_ij X_ij |K_j>><<K_i|.
    # X = 1 gives D = the Choi itself; a random X makes D signal, so neither
    # case reads 0 = 0.
    for c in (build_r_alpha_kraus(1.0 / 6.0), random_cptp(rng, IN_LAYOUT, OUT_LAYOUT, n_kraus=5)):
        ks = np.array(kraus_from_choi(c))
        r = len(ks)
        v = ks.reshape(r, -1).T
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        for in_labels, out_labels in (R_WIRES[:2], R_WIRES[2:]):
            rows = _deviation_rows(ks, c, in_labels, out_labels)
            for x in (np.eye(r), g):
                d = v @ x.T @ v.conj().T
                dev = _factorization_deviation(d, c.in_layout, c.out_layout, in_labels, out_labels)[0]
                assert np.max(np.abs((x.reshape(-1) @ rows).reshape(dev.shape) - dev.T)) <= 1e-14


def test_deviations_match_the_loop_reference(rng):
    # The verdict and the face's rows share `nosignal._deviation`; the
    # reference writes the deviation out by index loops instead.  Both are
    # checked on D = the Choi and on a signaling D = sum_ij X_ij |K_j>><<K_i|,
    # for each side, a two-label sender and empty subsets.
    cases = R_WIRES[:2], R_WIRES[2:], (["A", "B"], ["W_A"]), ([], [])
    for c in (build_r_alpha_kraus(1.0 / 6.0), random_cptp(rng, IN_LAYOUT, OUT_LAYOUT, n_kraus=5)):
        ks = np.array(kraus_from_choi(c))
        r = len(ks)
        v = ks.reshape(r, -1).T
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        for in_labels, out_labels in cases:
            rows = _deviation_rows(ks, c, in_labels, out_labels)
            for x in (np.eye(r), g):
                d = v @ x.T @ v.conj().T
                wires = (c.in_layout, c.out_layout, in_labels, out_labels)
                want = reference_deviation(d, *wires)
                dev = _factorization_deviation(d, *wires)[0]
                assert np.max(np.abs(dev - want)) <= 1e-14
                if in_labels:
                    got = (x.reshape(-1) @ rows).reshape(want.shape).T
                    assert np.max(np.abs(got - want)) <= 1e-14


@st.composite
def rotated_r_alpha_layout_channels(draw):
    """A channel of Kraus rank <= 4 in the R_alpha layout, and its image under
    a random local output unitary U_A (x) U_B on (A, W_A) | (W_B, B).

    The Gaussian entries come from a drawn seed: generic draws keep every
    singular value far from the cut, which hypothesis' shrunk floats need not.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["isometry", "mixture", "r_alpha"]))
    r = draw(st.integers(1, 4))
    if kind == "isometry":
        c = random_cptp(rng, IN_LAYOUT, OUT_LAYOUT, n_kraus=r)
    elif kind == "mixture":  # of r product isometries: a face of dimension > 0 from r = 2
        p = rng.dirichlet(np.ones(r))
        choi = sum(w * _product_isometry(rng).choi for w in p)
        c = Channel(choi, IN_LAYOUT, OUT_LAYOUT)
    else:
        c = build_r_alpha_kraus(draw(st.floats(0.0, 0.999)))
    g = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    u = np.kron(np.kron(np.linalg.qr(g[0])[0], np.linalg.qr(g[1])[0]), np.eye(c.d_in))
    return c, Channel(u @ c.choi @ u.conj().T, c.in_layout, c.out_layout)


@settings(max_examples=30, deadline=None)
@given(rotated_r_alpha_layout_channels())
def test_certificates_invariant_under_local_output_unitaries(pair):
    # K -> U K leaves every K_i† K_j fixed, and a local unitary maps the
    # no-signaling set onto itself.
    c, rotated = pair
    assert extremality_rank(rotated) == extremality_rank(c)
    face = ns_face_dimension(c, *R_WIRES).face_dimension
    assert ns_face_dimension(rotated, *R_WIRES).face_dimension == face


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
