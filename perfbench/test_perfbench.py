"""Tests of the benchmark itself: span arithmetic, oracles and failure counting.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import importlib
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nosigchan import analysis, channels, counterexample, nosignal, tensor  # noqa: E402


def _tree(rows):
    """Columns from (name, start, end, parent) rows."""
    names = sorted({r[0] for r in rows})
    name = np.array([names.index(r[0]) for r in rows])
    start, end, parent = (np.array([r[i] for r in rows]) for i in (1, 2, 3))
    return names, name, start, end, parent


def test_self_times_subtract_children():
    names, name, start, end, parent = _tree([
        ("op", 0.0, 10.0, -1),
        ("f", 1.0, 4.0, 0),
        ("g", 5.0, 9.0, 0),
        ("h", 6.0, 7.0, 2),
        ("op", 20.0, 30.0, -1),
        ("f", 21.0, 25.0, 4),
        ("f", 23.0, 27.0, 4),  # overlaps its sibling: covered once
        ("setup", 40.0, 41.0, -1),
    ])
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0, 4.0, 4.0, 4.0, 1.0]

    n_ops, totals, wall, _ = spans.summarize(names, name, start, end, parent, np.zeros(8), "op")
    assert n_ops == 2 and wall == 20.0
    assert totals["op"][:2] == [2, 7.0]
    assert totals["f"][:2] == [3, 11.0]
    assert "setup" not in totals


def test_summarize_reports_when_self_times_miss_the_wall_time():
    nested = [("op", 0.0, 10.0, -1), ("f", 1.0, 5.0, 0), ("g", 6.0, 8.0, 0)]
    _, _, _, err = spans.summarize(*_tree(nested), np.zeros(3), "op")
    assert err == 0.0
    # Siblings that overlap cannot come from one call stack; the error shows it.
    overlapping = [("op", 0.0, 10.0, -1), ("f", 1.0, 5.0, 0), ("g", 3.0, 6.0, 0)]
    _, _, _, err = spans.summarize(*_tree(overlapping), np.zeros(3), "op")
    assert err == 2.0


def _pieces(rng, d):
    a = tensor.layout(("A", 2), ("E_A", d)), tensor.layout("A", "W_A")
    b = tensor.layout(("B", 2), ("E_B", d)), tensor.layout("W_B", "B")
    return (channels.Channel(oracle.random_choi(rng, 2 * d, 4), *a),
            channels.Channel(oracle.random_choi(rng, 2 * d, 4), *b))


def test_tracer_sees_calls_inside_the_package_and_uninstalls():
    original = nosignal.apply
    tracer = spans.Tracer()
    tracer.install("nosigchan")
    try:
        assert nosignal.apply is not original
        ga, gb = _pieces(np.random.default_rng(0), 2)
        tracer.begin("op", 0)
        nosignal.build_localizable(ga, gb, 2)
        tracer.end()
    finally:
        tracer.uninstall()
    assert nosignal.apply is original
    name, start, end, parent, op, count = tracer.arrays()
    labels = np.array(tracer.names)[name]
    assert set(op) == {0}
    build = np.flatnonzero(labels == "nosignal.build_localizable")
    assert len(build) == 1
    applies = np.flatnonzero(labels == "channels.apply")
    assert len(applies) == 4 * 4  # one per matrix unit of the 4-dim input
    maps = np.flatnonzero(labels == "channels.choi_from_map")
    assert count[maps].sum() == 16
    n_ops, _, _, err = spans.summarize(tracer.names, name, start, end, parent, count, "op")
    assert n_ops == 1 and err < 1e-9


def test_oracles_match_the_library_on_small_cases():
    rng = np.random.default_rng(7)
    ga, gb = _pieces(rng, 2)
    c = nosignal.build_localizable(ga, gb, 2)
    ref = oracle.localizable_choi(ga.choi, gb.choi, 4, 2, 4, 2, 2)
    assert np.max(np.abs(c.choi - ref)) <= 1e-12
    assert oracle.chsh(ref) == pytest.approx(analysis.chsh_value(c), abs=1e-12)

    v1 = channels.Channel(oracle.random_choi(rng, 2, 4), tensor.layout("A"), tensor.layout("A", "R"))
    v2 = channels.Channel(oracle.random_choi(rng, 4, 2), tensor.layout("R", "B"), tensor.layout("B"))
    semi = nosignal.build_semilocalizable(v1, v2)
    assert np.max(np.abs(semi.choi - oracle.semilocal_choi(v1.choi, v2.choi, 2, 2, 2, 2, 2))) <= 1e-12

    r = counterexample.build_r_alpha_kraus(0.3)
    assert oracle.chsh(r.choi) == pytest.approx(analysis.chsh_value(r), abs=1e-12)
    assert oracle.chsh(r.choi) == pytest.approx(oracle.r_alpha_chsh(0.3), abs=1e-9)
    assert oracle.ppt_min_eig(r.choi, 16, 4) == pytest.approx(analysis.ppt_min_eig(r), abs=1e-12)
    for (o, i), (ins, outs) in zip(workloads.R_SIDES, ((["A"], ["A", "W_A"]), (["B"], ["W_B", "B"]))):
        _, res = nosignal.check_nosignaling_dir(r, ins, outs)
        assert oracle.nosignal_residual(r.choi, workloads.R_OUT, workloads.R_IN, o, i) == pytest.approx(res, abs=1e-12)

    sig = channels.Channel(oracle.random_choi(rng, 4, 4), tensor.layout("A", "B"), tensor.layout("A", "B"))
    sig.validate()
    _, res = nosignal.check_nosignaling_dir(sig, ["A"], ["A"])
    assert res > 1e-3
    assert oracle.nosignal_residual(sig.choi, [2, 2], [2, 2], [0], [0]) == pytest.approx(res, abs=1e-12)


PKG = SimpleNamespace(**{m: importlib.import_module(f"nosigchan.{m}") for m in spans.MODULES})


def test_perturbed_choi_is_counted_as_failed():
    wl = workloads.WORKLOADS["localizable"]
    ga, gb = _pieces(np.random.default_rng(3), 2)
    good = {"kind": "d=2", "d": 2, "ga": ga, "gb": gb}
    bump = np.zeros_like(ga.choi)
    bump[0, 1] = bump[1, 0] = 1e-9
    bad = dict(good, ga=channels.Channel(ga.choi + bump, ga.in_layout, ga.out_layout))
    _, problem = run.run_op(wl, PKG, {}, good)
    assert problem is None

    # The op receives the perturbed piece; the reference is built from the true one.
    class Perturbed(type(wl)):
        def op(self, pkg, state, case):
            return super().op(pkg, state, dict(case, ga=bad["ga"]))

    lat, problems, used = run.measure(Perturbed(), PKG, {}, iter([good] * 3), 0.0)
    assert len(lat) == 1 and problems[0] is not None and "link product" in problems[0]


def test_check_workload_rejects_a_report_that_misses_the_reference(tmp_path):
    wl = workloads.WORKLOADS["check"]
    pkg = PKG
    state = wl.setup(pkg, np.random.default_rng(5), str(tmp_path))
    wl.prepare(state)
    rng = np.random.default_rng(0)
    for kind in wl.kinds:
        _, problem = run.run_op(wl, pkg, state, wl.make_case(state, kind, rng))
        assert problem is None, (kind, problem)
    case = wl.make_case(state, "localizable-16", rng)
    case["file"] = dict(case["file"], ppt=case["file"]["ppt"] + 1e-6)
    _, problem = run.run_op(wl, pkg, state, case)
    assert problem is not None and "PPT" in problem


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ga, gb = _pieces(np.random.default_rng(1), 2)
    wl = workloads.WORKLOADS["localizable"]
    case = {"kind": "d=2", "d": 2, "ga": ga, "gb": gb}
    tracer = spans.Tracer()
    tracer.install("nosigchan")
    try:
        tracer.begin("setup", 0)
        tracer.end()
        lat, problems, _ = run.measure(wl, PKG, {}, iter([case] * 100), 0.0, tracer)
    finally:
        tracer.uninstall()
    assert problems == [None]
    layer, err = run.per_layer(tracer, lat, lat)
    assert err < 1e-9
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    assert all(layer[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    e2e = run.end_to_end(lat, [1.0], [1.0])
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
