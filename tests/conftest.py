"""Shared fixtures and test helpers: random channels, instruments and states,
`apply`, the channel's action read straight off its Choi operator, and
`prepare_channel`."""
import numpy as np
import pytest

from nosigchan.tensor import SystemLayout, as_matrix, kron, layout
from nosigchan.channels import Channel, ChannelError, channel_from_kraus, outcome_stack

OUTCOME = "#x"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_state_vec(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def apply(c: Channel, rho) -> np.ndarray:
    """C(rho) = Tr_in[(I_out x rho^T) choi]."""
    rho = as_matrix(rho)
    if rho.shape != (c.d_in, c.d_in):
        raise ChannelError(f"state shape {rho.shape}, channel input dim {c.d_in}")
    r4 = c.choi.reshape(c.d_out, c.d_in, c.d_out, c.d_in)
    return np.einsum("ki,akbi->ab", rho, r4)


def prepare_channel(sigma, out_layout: SystemLayout, in_layout: SystemLayout) -> Channel:
    """Discard the input and prepare the fixed state sigma."""
    return Channel(kron(sigma, np.eye(in_layout.total_dim)), in_layout, out_layout)


def random_cptp(
    rng: np.random.Generator,
    in_layout: SystemLayout,
    out_layout: SystemLayout,
    n_kraus: int = None,
) -> Channel:
    """Random CPTP channel from a Haar-ish isometry (QR of a Gaussian block)."""
    di, do = in_layout.total_dim, out_layout.total_dim
    if n_kraus is None:
        n_kraus = max(2, di)
    g = rng.standard_normal((do * n_kraus, di)) + 1j * rng.standard_normal((do * n_kraus, di))
    q, _ = np.linalg.qr(g)  # isometry: q† q = I_di
    ks = [q[i * do : (i + 1) * do, :] for i in range(n_kraus)]
    return channel_from_kraus(ks, in_layout, out_layout)


def random_instrument(
    rng: np.random.Generator,
    in_layout: SystemLayout,
    out_layout: SystemLayout,
    n_outcomes: int = 2,
) -> Channel:
    """Random instrument: partition the Kraus set of a random channel.

    The outcome is the last output, a classical wire labelled OUTCOME.
    """
    di, do = in_layout.total_dim, out_layout.total_dim
    n_kraus = max(n_outcomes, di)
    g = rng.standard_normal((do * n_kraus, di)) + 1j * rng.standard_normal((do * n_kraus, di))
    q, _ = np.linalg.qr(g)
    ks = [q[i * do : (i + 1) * do, :] for i in range(n_kraus)]
    groups = [[] for _ in range(n_outcomes)]
    for i, k in enumerate(ks):
        groups[i % n_outcomes].append(k)
    branches = []
    for grp in groups:
        b = np.zeros((do * di, do * di), dtype=complex)
        for k in grp:
            v = k.reshape(-1)
            b += np.outer(v, v.conj())
        branches.append(b)
    return Channel(outcome_stack(branches, do, di), in_layout,
                   out_layout.concat(layout((OUTCOME, n_outcomes))))


def random_controlled(
    rng: np.random.Generator,
    in_layout: SystemLayout,
    out_layout: SystemLayout,
    n_messages: int = 2,
) -> Channel:
    """Random channels picked by a classical message, the first input OUTCOME."""
    chois = [random_cptp(rng, in_layout, out_layout).choi for _ in range(n_messages)]
    return Channel(outcome_stack(chois, out_layout.total_dim, in_layout.total_dim),
                   layout((OUTCOME, n_messages)).concat(in_layout), out_layout)
