"""Tensor-index bookkeeping: layouts, the leg routine `regroup` and the
permutations, partial traces and transposes built on it, eigensolver,
embeddings, and the small operator zoo.

Oracles are written as independent brute-force index loops so the fast
reshape-based implementations are checked against first principles.
"""
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nosigchan.tensor import (
    SystemLayout,
    TensorError,
    clock_op,
    controlled_swap,
    eigh,
    eigvalsh,
    embed,
    kron,
    layout,
    max_entangled_vec,
    pauli,
    ptrace,
    ptranspose,
    regroup,
    shift_op,
    swap_op,
)
from conftest import (gram_rank, permute_vector, random_hermitian, random_state_vec, reorder,
                      vector_bra_contract)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# SystemLayout


def test_layout_basics():
    lay = layout(("A", 2), ("B", 3), "C")
    assert lay.labels == ("A", "B", "C")
    assert lay.dims == (2, 3, 2)
    assert lay.total_dim == 12
    assert len(lay) == 3
    assert lay.index("B") == 1
    assert lay.dim("B") == 3
    assert lay.indices(["C", "A"]) == (2, 0)
    assert lay.drop(["B"]).labels == ("A", "C")
    assert lay.select(["C", "B"]).dims == (2, 3)
    assert lay.concat(layout("D")).labels == ("A", "B", "C", "D")
    assert lay.relabel("#x").labels == ("A#x", "B#x", "C#x")


def test_layout_errors():
    with pytest.raises(TensorError):
        layout("A", "A")
    with pytest.raises(TensorError):
        layout(("A", 0))
    # a dimension is an integer: never truncated from a float, never a bool
    with pytest.raises(TensorError):
        SystemLayout((("A", 2.7),))
    with pytest.raises(TensorError):
        SystemLayout((("A", True),))
    assert SystemLayout((("A", np.int64(3)),)).dims == (3,)
    # a label is a string: None or a tuple is never turned into one
    for label in (None, ("W",)):
        with pytest.raises(TensorError, match=re.escape(f"label {label!r} is not a string")):
            SystemLayout(((label, 2),))
    lay = layout("A", "B")
    with pytest.raises(TensorError):
        lay.index("Z")
    with pytest.raises(TensorError):
        lay.drop(["Z"])


# ---------------------------------------------------------------------------
# kron / permutation


def test_kron_first_factor_most_significant():
    a = np.diag([1.0, 2.0])
    b = np.diag([10.0, 20.0, 30.0])
    k = kron(a, b)
    # index i = a_index * 3 + b_index
    assert k[1 * 3 + 2, 1 * 3 + 2] == 2.0 * 30.0


def test_regroup_reorder_matches_kron_reorder(rng):
    mats = [random_complex(rng, d) for d in (2, 3, 2)]
    lay = layout(("A", 2), ("B", 3), ("C", 2))
    m = kron(*mats)
    got, play = reorder(m, lay, ["C", "A", "B"]), lay.select(["C", "A", "B"])
    want = kron(mats[2], mats[0], mats[1])
    assert play.labels == ("C", "A", "B")
    assert np.allclose(got, want)


def test_regroup_reorder_round_trip(rng):
    lay = layout(("A", 2), ("B", 3), ("C", 4))
    m = random_complex(rng, lay.total_dim)
    p, play = reorder(m, lay, ["C", "A", "B"]), lay.select(["C", "A", "B"])
    assert play.labels == ("C", "A", "B")
    back, blay = reorder(p, play, ["A", "B", "C"]), play.select(["A", "B", "C"])
    assert blay.labels == lay.labels
    assert np.allclose(back, m)


# ---------------------------------------------------------------------------
# partial trace / partial transpose


def brute_ptrace(m, dims, keep):
    """Independent oracle: explicit loops over multi-indices."""
    ks = [dims[i] for i in keep]
    out = np.zeros((int(np.prod(ks)), int(np.prod(ks))), dtype=complex)
    ranges = [range(d) for d in dims]
    for row in itertools.product(*ranges):
        for col in itertools.product(*ranges):
            if any(row[i] != col[i] for i in range(len(dims)) if i not in keep):
                continue
            ri = ci = 0
            for i in keep:
                ri = ri * dims[i] + row[i]
                ci = ci * dims[i] + col[i]
            fr = fc = 0
            for i in range(len(dims)):
                fr = fr * dims[i] + row[i]
                fc = fc * dims[i] + col[i]
            out[ri, ci] += m[fr, fc]
    return out


def test_ptrace_against_brute_force(rng):
    lay = layout(("A", 2), ("B", 3), ("C", 2))
    m = random_complex(rng, 12)
    got = ptrace(m, lay, ["B"])
    assert np.allclose(got, brute_ptrace(m, (2, 3, 2), keep=[0, 2]))
    got = ptrace(m, lay, ["A", "C"])
    assert np.allclose(got, brute_ptrace(m, (2, 3, 2), keep=[1]))


def test_ptrace_identities(rng):
    a = random_complex(rng, 2)
    b = random_complex(rng, 3)
    lay = layout(("A", 2), ("B", 3))
    m = kron(a, b)
    assert np.allclose(ptrace(m, lay, ["B"]), a * np.trace(b))
    assert np.allclose(ptrace(m, lay, ["A"]), b * np.trace(a))
    full = ptrace(m, lay, ["A", "B"])
    assert np.allclose(full, np.trace(m))
    assert full.shape == (1, 1)


def test_ptranspose_kron_and_involution(rng):
    a = random_complex(rng, 2)
    b = random_complex(rng, 3)
    lay = layout(("A", 2), ("B", 3))
    m = kron(a, b)
    assert np.allclose(ptranspose(m, lay, ["B"]), kron(a, b.T))
    r = random_complex(rng, 6)
    assert np.allclose(ptranspose(ptranspose(r, lay, ["A"]), lay, ["A"]), r)
    # transposing every factor is the full transpose
    assert np.allclose(ptranspose(r, lay, ["A", "B"]), r.T)


def test_ptranspose_spectrum_same_for_either_side(rng):
    # For a Hermitian bipartite operator, transposing one factor or the
    # complementary factor gives matrices related by a full transpose,
    # hence with identical spectra.
    lay = layout(("A", 2), ("B", 3))
    h = random_hermitian(rng, 6)
    wa = np.linalg.eigvalsh(ptranspose(h, lay, ["A"]))
    wb = np.linalg.eigvalsh(ptranspose(h, lay, ["B"]))
    assert np.allclose(wa, wb)


def test_repeated_label_is_rejected(rng):
    lay = layout(("A", 3), ("B", 2))
    m = random_complex(rng, 6)
    with pytest.raises(TensorError):
        ptrace(m, lay, ["A", "A"])
    with pytest.raises(TensorError):
        ptranspose(m, lay, ["A", "A"])
    with pytest.raises(TensorError):
        reorder(m, lay, ["A", "A"])


def test_regroup_rejects_bad_legs(rng):
    lay = layout("A", "B")
    m = random_complex(rng, 4)
    for rows, cols in (
        ([("Z", 0)], [("Z", 1)]),  # unknown label
        ([("A", 0), ("A", 0)], [("A", 1)]),  # a leg named twice
        ([("A", 0)], [("B", 1)]),  # A and B each named on one side only
        ([("A", 2)], [("A", 1)]),  # no side 2
    ):
        with pytest.raises(TensorError):
            regroup(m, lay, rows, cols)
    for rows, cols in (
        ([["A", 0], ["B", 0]], [["A", 1], ["B", 1]]),  # lists are unhashable
        ([("A", 0, 1), ("B", 0)], [("A", 1), ("B", 1)]),  # a triple
        (["A", ("B", 0)], [("A", 1), ("B", 1)]),  # a bare label
    ):
        with pytest.raises(TensorError, match=re.escape("(label, side) pair")):
            regroup(m, lay, rows, cols)


def brute_regroup(m, lay, rows, cols):
    """Independent oracle for `regroup`: loops over every result entry and
    every value of the traced labels."""
    labels, dims = lay.labels, lay.dims
    named = {l for l, _ in rows + cols}
    traced = [i for i, l in enumerate(labels) if l not in named]

    def fold(index, ds):
        i = 0
        for v, d in zip(index, ds):
            i = i * d + v
        return i

    row_dims, col_dims = [lay.dim(l) for l, _ in rows], [lay.dim(l) for l, _ in cols]
    out = np.zeros((int(np.prod(row_dims)), int(np.prod(col_dims))), dtype=complex)
    for r in itertools.product(*map(range, row_dims)):
        for c in itertools.product(*map(range, col_dims)):
            for t in itertools.product(*[range(dims[i]) for i in traced]):
                ket, bra = [0] * len(dims), [0] * len(dims)
                for (l, side), v in zip(rows + cols, r + c):
                    (bra if side else ket)[labels.index(l)] = v
                for i, v in zip(traced, t):
                    ket[i] = bra[i] = v
                out[fold(r, row_dims), fold(c, col_dims)] += m[fold(ket, dims), fold(bra, dims)]
    return out


@st.composite
def regroup_cases(draw):
    """A layout of 0-4 subsystems (dims 1-3); each label traced, kept or
    transposed; the row and column legs each in their own random order."""
    dims = draw(st.lists(st.integers(1, 3), min_size=0, max_size=4))
    lay = SystemLayout(tuple((f"S{i}", d) for i, d in enumerate(dims)))
    fate = {l: draw(st.sampled_from(["trace", "keep", "transpose"])) for l in lay.labels}
    named = [l for l in lay.labels if fate[l] != "trace"]
    rows = [(l, int(fate[l] == "transpose")) for l in draw(st.permutations(named))]
    cols = [(l, int(fate[l] != "transpose")) for l in draw(st.permutations(named))]
    return lay, rows, cols, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(regroup_cases())
def test_regroup_matches_index_loops(case):
    lay, rows, cols, seed = case
    m = random_complex(np.random.default_rng(seed), lay.total_dim)
    got, want = regroup(m, lay, rows, cols), brute_regroup(m, lay, rows, cols)
    assert got.shape == want.shape
    if len(rows) == len(lay):  # reorder and transpose only move entries
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# eigh


def test_eigh_reconstruction_and_order(rng):
    for n in (2, 5, 16):
        h = random_hermitian(rng, n)
        w, v = eigh(h)
        assert np.all(np.diff(w) <= 1e-12)  # descending
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) <= 1e-9
        assert np.allclose(v.conj().T @ v, np.eye(n), atol=1e-10)


def test_eigvalsh_matches_eigh_values(rng):
    for n in (1, 2, 5, 16, 64):
        h = random_hermitian(rng, n)
        w = eigvalsh(h)
        assert np.all(np.diff(w) <= 0)  # descending, like eigh
        assert np.max(np.abs(w - eigh(h)[0])) <= 1e-12


def test_eigh_rejects_non_hermitian(rng):
    m = random_complex(rng, 4)
    m[0, 1] += 1.0  # ensure asymmetry
    with pytest.raises(TensorError):
        eigh(m)
    with pytest.raises(TensorError):
        eigvalsh(m)


def _spectral_case(kind, n, scale, seed):
    """A Hermitian matrix stored as complex: real symmetric ("real"), real
    symmetric with small integer entries and so degenerate spectra ("integer"),
    or complex Hermitian ("complex")."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        g = rng.integers(-2, 3, (n, n)).astype(float)
        return (g + g.T).astype(complex)
    g = rng.standard_normal((n, n)) * scale
    if kind == "complex":
        g = g + 1j * rng.standard_normal((n, n)) * scale
    return ((g + g.conj().T) / 2).astype(complex)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["real", "integer", "complex"]), st.integers(1, 16),
       st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2**32 - 1))
def test_eigh_real_and_complex_paths(kind, n, scale, seed):
    m = _spectral_case(kind, n, scale, seed)
    tol = 1e-12 * max(1.0, np.linalg.norm(m, 2))
    want = np.linalg.eigvalsh(m)[::-1]  # the complex driver, descending
    w, v = eigh(m)
    for vals in (w, eigvalsh(m)):
        assert np.all(np.diff(vals) <= 0)  # descending
        assert np.max(np.abs(vals - want)) <= tol
    assert v.dtype == complex
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - m)) <= tol
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12
    if kind != "complex":  # the real symmetric driver ran, bit for bit
        w_real, v_real = np.linalg.eigh(m.real)
        assert np.array_equal(w, w_real[::-1]) and np.array_equal(v, v_real[:, ::-1])
        assert np.array_equal(eigvalsh(m), np.linalg.eigvalsh(m.real)[::-1])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_real_non_symmetric_matrix_is_rejected(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    m[0, 1] += 1.0  # ensure asymmetry
    dev = np.max(np.abs(m - m.T))
    message = re.escape(f"matrix is not Hermitian: max|M - M†| = {dev:.3e}")
    for route in (eigh, eigvalsh):
        for stored in (m, m.astype(complex)):
            with pytest.raises(TensorError, match=f"^{message}$"):
                route(stored)


# ---------------------------------------------------------------------------
# embed / vector helpers


def test_embed_single_and_multi(rng):
    lay = layout(("A", 2), ("B", 3), ("C", 2))
    op = random_complex(rng, 3)
    assert np.allclose(embed(op, ["B"], lay), kron(np.eye(2), op, np.eye(2)))
    two = random_complex(rng, 4)
    # acting on (C, A) in that order
    got = embed(two, ["C", "A"], lay)
    want = reorder(kron(two, np.eye(3)), layout(("C", 2), ("A", 2), ("B", 3)), lay.labels)
    assert np.allclose(got, want)


def test_embed_disjoint_factors_commute(rng):
    lay = layout("A", "B", "C")
    x = embed(random_complex(rng, 2), ["A"], lay)
    y = embed(random_complex(rng, 2), ["C"], lay)
    assert np.allclose(x @ y, y @ x)


def test_permute_vector_matches_kron(rng):
    va, vb, vc = (random_state_vec(rng, d) for d in (2, 3, 2))
    lay = layout(("A", 2), ("B", 3), ("C", 2))
    v = np.kron(np.kron(va, vb), vc)
    got, play = permute_vector(v, lay, ["B", "C", "A"])
    assert play.labels == ("B", "C", "A")
    assert np.allclose(got, np.kron(np.kron(vb, vc), va))


def test_vector_bra_contract(rng):
    va, vb = random_state_vec(rng, 2), random_state_vec(rng, 3)
    lay = layout(("A", 2), ("B", 3))
    v = np.kron(va, vb)
    got = vector_bra_contract(v, lay, ["B"], vb)
    assert np.allclose(got, va)  # <vb|vb> = 1
    got = vector_bra_contract(v, lay, ["A"], np.array([1, 0]))
    assert np.allclose(got, va[0] * vb)


# ---------------------------------------------------------------------------
# gram_rank


def test_gram_rank_paulis():
    ops = [pauli(w) for w in "ixyz"]
    assert gram_rank(ops) == 4
    assert gram_rank(ops + [pauli("x") * 0.5]) == 4  # duplicate direction
    assert gram_rank([np.zeros((2, 2))] + ops) == 4
    assert gram_rank([np.zeros((2, 2))]) == 0


def test_gram_rank_scale_free():
    # rank counts directions relative to the largest Gram eigenvalue, so a
    # global rescaling never changes it
    ops = [pauli("i"), pauli("z") * 1e-2]
    assert gram_rank(ops) == 2
    assert gram_rank([op * 1e-7 for op in ops]) == 2
    # a component below the relative cutoff does not count
    assert gram_rank([pauli("i"), pauli("z") * 1e-8]) == 1


# ---------------------------------------------------------------------------
# operator zoo


def test_pauli_algebra():
    x, y, z = pauli("x"), pauli("y"), pauli("z")
    assert np.allclose(x @ y, 1j * z)
    assert np.allclose(x @ x, np.eye(2))


def test_weyl_commutation():
    for d in (2, 3, 5):
        x, z = shift_op(d), clock_op(d)
        w = np.exp(2j * np.pi / d)
        assert np.allclose(z @ x, w * x @ z)
        assert np.allclose(np.linalg.matrix_power(x, d), np.eye(d))
        assert np.allclose(np.linalg.matrix_power(z, d), np.eye(d))
        assert np.allclose(x @ x.conj().T, np.eye(d))


def test_max_entangled_vec():
    v = max_entangled_vec(3)
    assert np.allclose(v.reshape(3, 3), np.eye(3))
    vn = max_entangled_vec(3, normalized=True)
    assert np.isclose(np.linalg.norm(vn), 1.0)


def test_swap_and_controlled_swap(rng):
    d = 3
    va, vb = random_state_vec(rng, d), random_state_vec(rng, d)
    assert np.allclose(swap_op(d) @ np.kron(va, vb), np.kron(vb, va))
    cs = controlled_swap(d)
    c0 = np.array([1, 0])
    c1 = np.array([0, 1])
    assert np.allclose(cs @ np.kron(c0, np.kron(va, vb)), np.kron(c0, np.kron(va, vb)))
    assert np.allclose(cs @ np.kron(c1, np.kron(va, vb)), np.kron(c1, np.kron(vb, va)))
    assert np.allclose(cs @ cs.conj().T, np.eye(2 * d * d))
