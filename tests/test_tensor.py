"""Tensor-index bookkeeping: layouts, permutations, partial trace/transpose,
eigensolver, embeddings, and the small operator zoo.

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
    bra_sandwich,
    clock_op,
    controlled_swap,
    eigh,
    eigvalsh,
    embed,
    kron,
    layout,
    max_entangled_vec,
    pauli,
    permute_systems,
    permute_to,
    ptrace,
    ptranspose,
    shift_op,
    swap_op,
)
from conftest import (gram_rank, permute_vector, random_hermitian, random_state_vec,
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
    assert lay.permuted([2, 0, 1]).labels == ("C", "A", "B")


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
    with pytest.raises(TensorError):
        lay.permuted([0, 0])


# ---------------------------------------------------------------------------
# kron / permutation


def test_kron_first_factor_most_significant():
    a = np.diag([1.0, 2.0])
    b = np.diag([10.0, 20.0, 30.0])
    k = kron(a, b)
    # index i = a_index * 3 + b_index
    assert k[1 * 3 + 2, 1 * 3 + 2] == 2.0 * 30.0


def test_permute_systems_matches_kron_reorder(rng):
    mats = [random_complex(rng, d) for d in (2, 3, 2)]
    lay = layout(("A", 2), ("B", 3), ("C", 2))
    m = kron(*mats)
    got = permute_systems(m, lay, [2, 0, 1])
    want = kron(mats[2], mats[0], mats[1])
    assert np.allclose(got, want)


def test_permute_to_round_trip(rng):
    lay = layout(("A", 2), ("B", 3), ("C", 4))
    m = random_complex(rng, lay.total_dim)
    p, play = permute_to(m, lay, ["C", "A", "B"])
    assert play.labels == ("C", "A", "B")
    back, blay = permute_to(p, play, ["A", "B", "C"])
    assert blay.labels == lay.labels
    assert np.allclose(back, m)


def test_permute_to_requires_full_cover(rng):
    lay = layout("A", "B")
    with pytest.raises(TensorError):
        permute_to(np.eye(4), lay, ["A"])


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


# ---------------------------------------------------------------------------
# embed / vector helpers


def test_embed_single_and_multi(rng):
    lay = layout(("A", 2), ("B", 3), ("C", 2))
    op = random_complex(rng, 3)
    assert np.allclose(embed(op, ["B"], lay), kron(np.eye(2), op, np.eye(2)))
    two = random_complex(rng, 4)
    # acting on (C, A) in that order
    got = embed(two, ["C", "A"], lay)
    want = permute_systems(
        kron(two, np.eye(3)), layout(("C", 2), ("A", 2), ("B", 3)), [1, 2, 0]
    )
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


def test_bra_sandwich_matches_projection(rng):
    lay = layout(("A", 2), ("B", 3))
    m = random_complex(rng, 6)
    bra = random_state_vec(rng, 3)
    got = bra_sandwich(m, lay, ["B"], bra)
    big_bra = kron(np.eye(2), bra.reshape(1, 3))
    assert np.allclose(got, big_bra.conj() @ m @ big_bra.T)


@st.composite
def sandwich_cases(draw):
    """A layout of 2-4 subsystems (dims 1-3), an ordered label subset, a seed."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    labels = [f"S{i}" for i in range(len(dims))]
    order = draw(st.permutations(labels))
    picked = order[: draw(st.integers(1, len(order)))]
    return SystemLayout(tuple(zip(labels, dims))), picked, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(sandwich_cases())
def test_bra_sandwich_is_projection_after_permutation(case):
    lay, picked, seed = case
    rng = np.random.default_rng(seed)
    m = random_complex(rng, lay.total_dim)
    rest = [l for l in lay.labels if l not in picked]
    mm, play = permute_to(m, lay, picked + rest)
    back, back_lay = permute_to(mm, play, lay.labels)
    assert back_lay == lay and np.array_equal(back, m)
    db = lay.select(picked).total_dim
    bra = rng.standard_normal(db) + 1j * rng.standard_normal(db)
    eye = np.eye(lay.total_dim // db)
    want = kron(bra.conj().reshape(1, db), eye) @ mm @ kron(bra.reshape(db, 1), eye)
    got = bra_sandwich(m, lay, picked, bra)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-12)


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
