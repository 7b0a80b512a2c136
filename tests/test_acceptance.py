"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with ``pytest -s`` or in the captured output of a failing test)
before asserting, so a red criterion still reports its measured values.
"""
import numpy as np

from nosigchan.tensor import eigh, layout, ptrace
from nosigchan.channels import (
    channel_from_kraus,
    kraus_from_choi,
)
from nosigchan.nosignal import (
    build_localizable,
    build_realization_cc,
    check_nosignaling_dir,
    signaling_verdict,
    teleport_realization,
)
from nosigchan.counterexample import (
    VARIANT_SIGMA_ON_A,
    VARIANT_SIGMA_ON_B,
    build_r_alpha_circuit,
    build_r_alpha_kraus,
)
from nosigchan.analysis import (
    TSIRELSON,
    chsh_value,
    extremality_rank,
    ns_face_dimension,
    ppt_min_eig,
)
from conftest import (identity_channel, random_controlled, random_cptp, random_density, random_hermitian,
                      random_instrument)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {name}: {status}{suffix}")


R_SIXTH = build_r_alpha_kraus(1.0 / 6.0)


def test_criterion_1_chsh_closed_form():
    worst = 0.0
    for alpha in np.linspace(0.0, 1.0, 11):
        val = chsh_value(build_r_alpha_kraus(float(alpha)))
        worst = max(worst, abs(val - abs(4.0 - 6.0 * alpha)))
    v_sixth = chsh_value(R_SIXTH)
    ok = worst <= 1e-9 and abs(v_sixth - 3.0) <= 1e-9 and v_sixth > TSIRELSON
    report("1 CHSH closed form", ok, f"max dev {worst:.2e}, value at 1/6 = {v_sixth:.12f}")
    assert ok


def test_criterion_2_construction_equivalence():
    worst = 0.0
    for alpha in (0.0, 1.0 / 6.0, 0.5, 1.0):
        ck = build_r_alpha_kraus(alpha)
        ca = build_r_alpha_circuit(alpha, VARIANT_SIGMA_ON_A)
        cb = build_r_alpha_circuit(alpha, VARIANT_SIGMA_ON_B)
        worst = max(
            worst,
            float(np.linalg.norm(ck.choi - ca.choi)),
            float(np.linalg.norm(ck.choi - cb.choi)),
            float(np.linalg.norm(ca.choi - cb.choi)),
        )
    ok = worst <= 1e-9
    report("2 construction equivalence", ok, f"max Frobenius {worst:.2e}")
    assert ok


def test_criterion_3_no_signaling():
    worst = 0.0
    for alpha in np.linspace(0.0, 1.0, 11):
        c = build_r_alpha_kraus(float(alpha))
        v = signaling_verdict(c, ["A"], ["A", "W_A"], ["B"], ["W_B", "B"])
        worst = max(worst, v.residual_a, v.residual_b)
        if not (v.a_to_b and v.b_to_a):
            break
    ok = worst <= 1e-9
    report("3 no-signaling", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_4_ppt_violation():
    val = ppt_min_eig(R_SIXTH)
    ok = val < -1e-6
    report("4 PPT violation", ok, f"min eigenvalue {val:.6f}")
    assert ok


def test_criterion_5_extremality():
    # The conjecture concerns mixtures of no-signaling channels, and the
    # no-signaling conditions are linear: if R = p E + (1-p) L with R and L
    # no-signaling, so is E.  R_1/6 therefore refutes it once it is extreme
    # among no-signaling channels.  Choi's test decides extremality among all
    # channels, where R_1/6 is a mixture of two signaling channels
    # (tests/test_analysis.py), so it is reported here but not required.
    face = ns_face_dimension(R_SIXTH, ["A"], ["A", "W_A"], ["B"], ["W_B", "B"])
    all_channels = ns_face_dimension(R_SIXTH, [], [], [], [])
    r, rank, _ = extremality_rank(R_SIXTH)
    ok = face.support_rank == 4 and face.face_dimension == 0
    report(
        "5 extremality",
        ok,
        f"no-signaling face dimension {face.face_dimension} at support rank "
        f"{face.support_rank}, smallest singular value "
        f"{face.min_singular_value:.3f} vs tolerance {face.tolerance:.1e}; "
        f"among all channels: Choi product rank {rank} of {r * r}, "
        f"face dimension {all_channels.face_dimension}",
    )
    assert ok


def test_criterion_6_realization_no_signaling_suite():
    rng = np.random.default_rng(20240818)
    worst = 0.0
    count = 0
    for direction in ("A_to_B", "B_to_A"):
        if direction == "A_to_B":
            snd, rcv = ("A", "Ap", "EA"), ("B", "Bp", "EB")
        else:
            snd, rcv = ("B", "Bp", "EB"), ("A", "Ap", "EA")
        for _ in range(100):
            n = int(rng.integers(2, 4))
            sender = random_instrument(
                rng, layout(snd[0], snd[2]), layout(snd[1]), n_outcomes=n
            )
            receiver = random_controlled(rng, layout(rcv[0], rcv[2]), layout(rcv[1]), n)
            c = build_realization_cc(direction, sender, receiver)
            ok_dir, res = check_nosignaling_dir(c, [rcv[0]], [rcv[1]])
            worst = max(worst, res)
            count += 1
            if not ok_dir:
                break
    for _ in range(20):
        ga = random_cptp(rng, layout("A", "EA"), layout("Ap"))
        gb = random_cptp(rng, layout("B", "EB"), layout("Bp"))
        c = build_localizable(ga, gb, 2)
        v = signaling_verdict(c, ["A"], ["Ap"], ["B"], ["Bp"])
        worst = max(worst, v.residual_a, v.residual_b)
    ok = worst <= 1e-9 and count == 200
    report(
        "6 one-round realization no-signaling suite",
        ok,
        f"{count} realizations, max residual {worst:.2e}",
    )
    assert ok


def test_criterion_7_tsirelson_bound_for_localizable():
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        ga = random_cptp(rng, layout("A", ("EA", d)), layout("A", "W_A"))
        gb = random_cptp(rng, layout("B", ("EB", d)), layout("W_B", "B"))
        c = build_localizable(ga, gb, d)
        worst = max(worst, chsh_value(c))
    ok = worst <= TSIRELSON + 1e-6
    report(
        "7 Tsirelson bound for localizable channels",
        ok,
        f"max CHSH {worst:.6f} vs bound {TSIRELSON:.6f}",
    )
    assert ok


def test_criterion_8_teleportation_identity():
    worst = 0.0
    for d in (2, 3, 4):
        v1 = identity_channel(layout(("S", d)))
        v1 = type(v1)(v1.choi, layout(("S", d)), layout(("E", d)))
        v2 = identity_channel(layout(("E", d)))
        v2 = type(v2)(v2.choi, layout(("E", d)), layout(("T", d)))
        got = teleport_realization(v1, v2)
        want = identity_channel(layout(("S", d)))
        worst = max(worst, float(np.linalg.norm(got.choi - want.choi)))
    ok = worst <= 1e-10
    report("8 teleportation identity", ok, f"max Frobenius {worst:.2e}")
    assert ok


def test_criterion_9_library_well_formedness():
    rng = np.random.default_rng(20240820)
    ok = True
    detail = []
    # eigh reconstruction
    worst = 0.0
    for n in (3, 8, 16):
        h = random_hermitian(rng, n)
        w, v = eigh(h)
        worst = max(worst, float(np.max(np.abs(v @ np.diag(w) @ v.conj().T - h))))
    ok = ok and worst <= 1e-9
    detail.append(f"eigh {worst:.2e}")
    # Kraus round trip
    worst = 0.0
    for di, do in ((2, 3), (4, 2), (3, 3)):
        c = random_cptp(rng, layout(("I", di)), layout(("O", do)))
        back = channel_from_kraus(kraus_from_choi(c), c.in_layout, c.out_layout)
        worst = max(worst, float(np.max(np.abs(back.choi - c.choi))))
    ok = ok and worst <= 1e-8
    detail.append(f"kraus {worst:.2e}")
    # partial-trace identities
    worst = 0.0
    lay = layout(("A", 2), ("B", 3), ("C", 2))
    for _ in range(5):
        rho = random_density(rng, 12)
        worst = max(
            worst,
            abs(np.trace(ptrace(rho, lay, ["B"])) - 1.0),
            float(
                np.max(
                    np.abs(
                        ptrace(rho, lay, ["A", "B"])
                        - ptrace(ptrace(rho, lay, ["A"]), lay.drop(["A"]), ["B"])
                    )
                )
            ),
        )
    ok = ok and worst <= 1e-12
    detail.append(f"ptrace {worst:.2e}")
    report("9 library well-formedness", ok, ", ".join(detail))
    assert ok
