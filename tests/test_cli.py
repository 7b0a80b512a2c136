"""CLI harness and the JSON interchange format for Choi operators."""
import json

import numpy as np
import pytest

from nosigchan.tensor import layout
from nosigchan.channels import identity_channel
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

from conftest import random_cptp


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
