"""Finite-dimensional bipartite quantum channels, directional no-signaling
verdicts, realization circuits, and the atomic no-signaling counterexample."""

from .tensor import (
    SystemLayout,
    TensorError,
    eigh,
    embed,
    kron,
    layout,
    permute_systems,
    ptrace,
    ptranspose,
)
from .channels import (
    Channel,
    ChannelError,
    channel_from_kraus,
    compose_par,
    compose_seq,
    identity_channel,
    kraus_from_choi,
    link,
    outcome_stack,
    unitary_channel,
)
from .nosignal import (
    SignalingVerdict,
    build_localizable,
    build_realization_cc,
    build_semilocalizable,
    check_nosignaling_dir,
    signaling_verdict,
    teleport_gadget,
    teleport_realization,
)
from .counterexample import (
    build_r_alpha_circuit,
    build_r_alpha_kraus,
    build_r_alpha_realization,
    kraus_operators,
)
from .analysis import (
    AnalysisReport,
    FaceDimension,
    analyze,
    chsh_value,
    extremality_rank,
    ns_face_dimension,
    ppt_min_eig,
)

__all__ = [
    "SystemLayout", "TensorError", "eigh", "embed", "kron", "layout",
    "permute_systems", "ptrace", "ptranspose",
    "Channel", "ChannelError", "channel_from_kraus",
    "compose_par", "compose_seq", "identity_channel",
    "kraus_from_choi", "link", "outcome_stack", "unitary_channel",
    "SignalingVerdict", "build_localizable",
    "build_realization_cc", "build_semilocalizable", "check_nosignaling_dir",
    "signaling_verdict", "teleport_gadget", "teleport_realization",
    "build_r_alpha_circuit", "build_r_alpha_kraus", "build_r_alpha_realization",
    "kraus_operators",
    "AnalysisReport", "FaceDimension", "analyze", "chsh_value", "extremality_rank",
    "ns_face_dimension", "ppt_min_eig",
]
