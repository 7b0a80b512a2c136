"""CLI harness and the JSON interchange format for Choi operators."""
import json

import numpy as np
import pytest

from nosigchan.tensor import layout
from nosigchan.channels import Channel, unitary_channel
from nosigchan.choifile import (
    ChoiFileError,
    channel_from_dict,
    channel_to_dict,
    load_channel,
    save_channel,
)
from nosigchan.counterexample import build_r_alpha_kraus
from nosigchan.cli import main
from nosigchan.nosignal import NOSIGNAL_TOL

from conftest import identity_channel, random_cptp


# ---------------------------------------------------------------------------
# interchange format


def test_round_trip_is_exact(rng, tmp_path):
    c = random_cptp(rng, layout("A", ("B", 3)), layout(("O", 2)))
    path = tmp_path / "c.json"
    save_channel(c, path)
    back = load_channel(path)
    assert np.array_equal(back.choi, c.choi)  # bit-exact, not just close
    assert back.in_layout == c.in_layout
    assert back.out_layout == c.out_layout


def save_channel_by_json_dump(c, path):
    """The writer as it was: json.dump of one [float(re), float(im)] pair per cell,
    which streams through json's pure-Python encoder."""
    def dims(lay):
        return [{"label": l, "dim": d} for l, d in lay.subsystems]

    data = {
        "format_version": 1,
        "in_dims": dims(c.in_layout),
        "out_dims": dims(c.out_layout),
        "choi": [[[float(z.real), float(z.imag)] for z in row] for row in c.choi],
    }
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def test_save_channel_writes_the_old_writers_bytes(rng, tmp_path):
    # signed zeros, the smallest subnormal, a huge entry and a non-ASCII label
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m[0, 0], m[1, 2] = complex(-0.0, 5e-324), complex(1e300, -0.0)
    m[3, 3] = complex(-5e-324, -1e300)
    c = Channel(m, layout(("Ψ_in", 2)), layout(("B", 2), ("ω", 2)))
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    save_channel(c, new)
    save_channel_by_json_dump(c, old)
    assert new.read_bytes() == old.read_bytes()
    back = load_channel(new)
    assert back.choi.tobytes() == c.choi.tobytes()  # exact, down to the sign of zero
    assert back.in_layout == c.in_layout and back.out_layout == c.out_layout


def test_serialized_dims_and_version(rng, tmp_path):
    c = build_r_alpha_kraus(0.5)
    d = channel_to_dict(c)
    assert d["format_version"] == 1
    assert [s["dim"] for s in d["in_dims"]] == [2, 2]
    assert [s["dim"] for s in d["out_dims"]] == [2, 2, 2, 2]
    assert len(d["choi"]) == 64 and len(d["choi"][0]) == 64
    assert d["choi"][0][0] == [pytest.approx(c.choi[0, 0].real), 0.0]


def test_from_dict_rejects_malformed():
    good = channel_to_dict(identity_channel(layout("S")))
    bad = dict(good, format_version=99)
    with pytest.raises(ChoiFileError):
        channel_from_dict(bad)
    bad = {k: v for k, v in good.items() if k != "choi"}
    with pytest.raises(ChoiFileError):
        channel_from_dict(bad)
    bad = dict(good, choi=good["choi"][:-1])
    with pytest.raises(ChoiFileError):
        channel_from_dict(bad)
    with pytest.raises(ChoiFileError):
        channel_from_dict([1, 2, 3])
    choi = [row[:] for row in good["choi"]]
    choi[0][0] = [True, False]  # reads as 1 + 0j unless rejected
    with pytest.raises(ChoiFileError):
        channel_from_dict(dict(good, choi=choi))


def test_load_rejects_a_label_that_is_not_a_string(tmp_path):
    # A layout turns any label into a string, so null would name a wire "None"
    for label in (None, ["A"]):
        d = channel_to_dict(identity_channel(layout("A", "B")))
        d["in_dims"][0]["label"] = label
        p = tmp_path / "bad-label.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ChoiFileError, match="label"):
            load_channel(p)


def test_load_rejects_non_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("not json at all {")
    with pytest.raises(ChoiFileError):
        load_channel(p)


# ---------------------------------------------------------------------------
# reproduce


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reproduce_default(capsys):
    code, out, err = run_cli(capsys, "reproduce")
    report = json.loads(out)
    assert report["alpha"] == pytest.approx(1.0 / 6.0)
    a = report["analysis"]
    assert a["chsh_value"] == pytest.approx(3.0, abs=1e-9)
    assert a["ppt_violated"] is True
    assert a["nosignaling"]["a_to_b"] and a["nosignaling"]["b_to_a"]
    assert report["construction_equivalence"]["kraus_vs_circuit"] <= 1e-9
    assert report["construction_equivalence"]["circuit_variants"] <= 1e-9
    checks = report["checks"]
    assert checks["no-signaling A side"] and checks["no-signaling B side"]
    assert checks["PPT violated"] and checks["CHSH exceeds Tsirelson bound"]
    # the Kraus products of this family are linearly dependent (rank 10 of
    # 16), so the full-rank extremality check honestly fails and the run
    # exits nonzero naming it
    assert a["extremality_rank"] == 10 and a["extremality_full"] is False
    assert code == 1
    assert "FAILED: extremality rank full" in err


def test_reproduce_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "reproduce", "--alpha", "0.25")
    _, out2, _ = run_cli(capsys, "reproduce", "--alpha", "0.25")
    assert out1 == out2


def test_reproduce_writes_report_file(capsys, tmp_path):
    p = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "reproduce", "--out", str(p))
    assert p.read_text() == out


def test_reproduce_unwritable_out_exits_2(capsys, tmp_path):
    p = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "reproduce", "--out", str(p))
    assert code == 2
    assert err.startswith(f"error: cannot write {p}: ")
    assert "FAILED" not in err
    assert json.loads(out)["alpha"] == pytest.approx(1.0 / 6.0)
    assert not p.exists()


def test_reproduce_alpha_two_thirds(capsys):
    code, out, err = run_cli(capsys, "reproduce", "--alpha", str(2.0 / 3.0))
    report = json.loads(out)
    assert report["analysis"]["chsh_value"] == pytest.approx(0.0, abs=1e-9)
    assert report["checks"]["CHSH exceeds Tsirelson bound"] is False
    assert code == 1  # CHSH does not certify non-localizability here


def test_main_calls_share_no_option_values(capsys, tmp_path):
    first = tmp_path / "first.json"
    code, _, _ = run_cli(capsys, "reproduce", "--alpha", "0.25", "--tol", "1e-3",
                         "--out", str(first))
    assert code == 1 and first.exists()
    first.unlink()
    code, out, _ = run_cli(capsys, "reproduce")
    report = json.loads(out)
    assert report["alpha"] == 1.0 / 6.0
    assert report["construction_equivalence"]["tolerance"] == NOSIGNAL_TOL
    assert not first.exists()  # --out did not carry over
    exported = tmp_path / "r.json"
    assert run_cli(capsys, "export", "--alpha", "0.5", str(exported))[0] == 0
    code, out, _ = run_cli(capsys, "check", str(exported), "--sender", "A,W_A",
                           "--receiver", "B,W_B")
    assert code == 0
    assert json.loads(out)["file"] == str(exported)


def test_reproduce_tol_must_be_finite_and_positive(capsys):
    for bad in ("nan", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--tol", bad])
        assert exc.value.code == 2


def test_reproduce_alpha_out_of_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--alpha", "1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--alpha", "zebra"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# export / check


def test_export_then_check_round_trip(capsys, tmp_path):
    p = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "export", "--alpha", str(1.0 / 6.0), str(p))
    assert code == 0
    code, out, err = run_cli(
        capsys, "check", str(p), "--sender", "A,W_A", "--receiver", "B,W_B"
    )
    assert code == 0
    file_report = json.loads(out)["analysis"]
    code, out, _ = run_cli(capsys, "reproduce")
    mem_report = json.loads(out)["analysis"]
    assert file_report == mem_report


def test_export_boundary_alphas(capsys, tmp_path):
    for alpha in ("0", "1"):
        p = tmp_path / f"r{alpha}.json"
        code, _, _ = run_cli(capsys, "export", "--alpha", alpha, str(p))
        assert code == 0
        load_channel(p).validate()


def test_check_identity_channel(capsys, tmp_path):
    c = identity_channel(layout("A", "B"))
    p = tmp_path / "id.json"
    save_channel(c, p)
    code, out, err = run_cli(
        capsys, "check", str(p), "--sender", "A", "--receiver", "B"
    )
    assert code == 0
    a = json.loads(out)["analysis"]
    assert a["nosignaling"]["a_to_b"] and a["nosignaling"]["b_to_a"]


def test_check_non_psd_matrix(capsys, tmp_path):
    c = identity_channel(layout("A"))
    d = channel_to_dict(c)
    d["choi"][1][1] = [-1.0, 0.0]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    code, _, err = run_cli(capsys, "check", str(p), "--sender", "A", "--receiver", "A")
    assert code == 1
    assert "not completely positive" in err


def test_check_shares_validate_hermiticity_tolerance(capsys, tmp_path):
    # +eps*i at (0, 5) and at (5, 0) puts max|M - M†| at 2 eps: under the one
    # Hermiticity tolerance (1e-9) the file is analysed, above it rejected
    for eps, want in ((4e-10, 0), (2e-9, 1)):
        d = channel_to_dict(identity_channel(layout("A", "B")))
        d["choi"][0][5][1] += eps
        d["choi"][5][0][1] += eps
        p = tmp_path / "near-hermitian.json"
        p.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "check", str(p), "--sender", "A", "--receiver", "B")
        assert code == want, err
        if want == 0:
            assert json.loads(out)["analysis"]["nosignaling"]["a_to_b"]
        else:
            assert out == "" and "not a channel" in err


def test_check_non_finite_entry_exits_2(capsys, tmp_path):
    for (i, j), value in (((0, 1), float("nan")), ((1, 1), float("inf"))):
        d = channel_to_dict(identity_channel(layout("A")))
        d["choi"][i][j] = [value, 0.0]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))  # bare NaN / Infinity tokens
        code, _, err = run_cli(capsys, "check", str(p), "--sender", "A", "--receiver", "A")
        assert code == 2
        assert "non-finite" in err


def test_check_parse_error_exits_2(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{]")
    code, _, err = run_cli(capsys, "check", str(p), "--sender", "A", "--receiver", "B")
    assert code == 2
    code, _, err = run_cli(
        capsys, "check", str(tmp_path / "missing.json"), "--sender", "A", "--receiver", "B"
    )
    assert code == 2


def _set_every_dim(d, value):
    for key in ("in_dims", "out_dims"):
        for wire in d[key]:
            wire["dim"] = value


# Each edit turns the file of the two-qubit identity channel into a malformed
# one: it edits the parsed file in place, or returns the bytes to write instead.
MALFORMED = {
    "dim-string": lambda d: d["in_dims"][0].update(dim="two"),
    "dim-zero": lambda d: d["in_dims"][0].update(dim=0),
    "repeated-label": lambda d: d["in_dims"][1].update(label="A"),
    "choi-not-a-list": lambda d: d.update(choi=5),
    "cell-overflows-float": lambda d: d["choi"][0].__setitem__(1, [10**400, 0]),
    "dim-not-an-integer": lambda d: _set_every_dim(d, 2.7),
    "cell-of-three-numbers": lambda d: d["choi"][0][1].append(1.0),
    "cell-of-booleans": lambda d: d["choi"][0].__setitem__(0, [True, False]),
    "not-utf-8": lambda d: np.random.default_rng(0).bytes(200),
    "version-true": lambda d: d.update(format_version=True),
    "version-float": lambda d: d.update(format_version=1.0),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_check_malformed_file_exits_2(capsys, tmp_path, edit):
    d = channel_to_dict(identity_channel(layout("A", "B")))
    content = edit(d)
    p = tmp_path / "bad.json"
    p.write_bytes(json.dumps(d).encode() if content is None else content)
    code, out, err = run_cli(capsys, "check", str(p), "--sender", "A", "--receiver", "B")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_check_reports_which_labels_were_the_sender(capsys, tmp_path):
    # CNOT signals both ways, so the two runs differ only in which side is
    # which: the party fields must say so
    cnot = np.eye(4)[:, [0, 1, 3, 2]].astype(complex)
    p = tmp_path / "cnot.json"
    save_channel(unitary_channel(cnot, layout("A", "B")), p)
    reports = []
    for sender, receiver in (("A", "B"), ("B", "A")):
        code, out, _ = run_cli(capsys, "check", str(p), "--sender", sender,
                               "--receiver", receiver)
        assert code == 0
        reports.append(json.loads(out))
    ab, ba = reports
    assert (ab["sender"], ab["receiver"]) == (["A"], ["B"])
    assert (ba["sender"], ba["receiver"]) == (["B"], ["A"])
    ns_ab, ns_ba = ab["analysis"]["nosignaling"], ba["analysis"]["nosignaling"]
    assert (ns_ab["residual_a"], ns_ab["residual_b"]) == (ns_ba["residual_b"], ns_ba["residual_a"])


def test_check_requires_label_partition(capsys, tmp_path):
    c = identity_channel(layout("A", "B"))
    p = tmp_path / "id.json"
    save_channel(c, p)
    code, _, err = run_cli(capsys, "check", str(p), "--sender", "A", "--receiver", "A")
    assert code == 2
    assert "partition" in err


def test_check_rejects_labels_that_name_no_wire(capsys, tmp_path):
    p = tmp_path / "r.json"
    save_channel(build_r_alpha_kraus(0.2), p)
    code, out, err = run_cli(capsys, "check", str(p), "--sender", "A,W_A,typo",
                             "--receiver", "B,W_B")
    assert code == 2
    assert out == ""
    assert "'typo'" in err
