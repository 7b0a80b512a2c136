"""The four workloads: inputs from the seed, one op, and the check of its output.

Every workload runs as one closed-loop client: an op starts when the
previous one and its check have finished.  Op kinds run in shuffled
balanced blocks (each block holds every kind once), so the latency
percentiles of a run describe the same mix whatever the seed.

Checks run outside the timed interval.  They compare against ``oracle``
(plain NumPy) or, for the R_alpha realization route, against the library's
Kraus route; never against the function being timed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import oracle

CHSH_SLACK = 1e-6  # slack of the library's Tsirelson test, restated
CHOI_TOL = 1e-12
VALUE_TOL = 1e-9


def run_cli(cli, argv):
    """cli.main(argv) in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _draw_alpha(rng) -> float:
    """alpha in (0, 1), away from the CHSH threshold (4 - 2 sqrt 2) / 6."""
    while True:
        alpha = float(rng.uniform(0.0, 1.0))
        if alpha > 0.0 and abs(oracle.r_alpha_chsh(alpha) - oracle.TSIRELSON) > 1e-4:
            return alpha


def _check_verdicts(analysis: dict, ref_a: float, ref_b: float, expect_nosignal: bool):
    ns = analysis["nosignaling"]
    if abs(ns["residual_a"] - ref_a) > CHOI_TOL or abs(ns["residual_b"] - ref_b) > CHOI_TOL:
        return (f"no-signaling residuals {ns['residual_a']:.3e}, {ns['residual_b']:.3e} "
                f"vs reference {ref_a:.3e}, {ref_b:.3e}")
    if (ns["a_to_b"] and ns["b_to_a"]) != expect_nosignal:
        return f"no-signaling verdicts {ns['a_to_b']}, {ns['b_to_a']}; expected both {expect_nosignal}"
    return None


# Party split of the R_alpha layout: outputs (A, W_A, W_B, B), inputs (A, B).
R_OUT, R_IN = [2, 2, 2, 2], [2, 2]
R_SIDES = (([0, 1], [0]), ([2, 3], [1]))


class Workload:
    """One workload.

    ``make_case`` draws one op's inputs, ``op`` runs it (the timed part),
    ``check`` returns None or what is wrong with the output, ``cold_cases``
    and ``argv`` give the fresh-process CLI runs, and ``param`` gives an
    op's generated parameters for the provenance.
    """

    def setup(self, pkg, rng, workdir):
        """Generate inputs (and write files) from ``rng``; timed as set-up."""
        return {}

    def prepare(self, state):
        """Compute references after set-up, outside every timed interval."""

    def describe(self, state):
        """Generated parameters shared by all ops, for the run's provenance."""
        return {}

    def check_cold(self, case, out):
        return self.check(None, None, case, out)


class Reproduce(Workload):
    """cli reproduce at random alpha: the paper's headline command."""

    name = "reproduce"
    kinds = ("reproduce",)

    def make_case(self, state, kind, rng):
        return {"kind": kind, "alpha": _draw_alpha(rng)}

    def argv(self, state, case):
        return ["reproduce", "--alpha", repr(case["alpha"])]

    def op(self, pkg, state, case):
        return run_cli(pkg.cli, self.argv(state, case))

    def check(self, pkg, state, case, out):
        code, stdout, stderr = out
        alpha = case["alpha"]
        chsh = oracle.r_alpha_chsh(alpha)
        failing = ("CHSH exceeds Tsirelson bound" if chsh <= oracle.TSIRELSON + CHSH_SLACK
                   else "extremality rank full")
        if code != 1 or stderr != f"FAILED: {failing}\n":
            return f"exit {code}, stderr {stderr!r}; expected exit 1 naming {failing!r}"
        analysis = json.loads(stdout)["analysis"]
        if abs(analysis["chsh_value"] - chsh) > VALUE_TOL:
            return f"CHSH {analysis['chsh_value']!r} vs |4 - 6 alpha| = {chsh!r}"
        ns = analysis["nosignaling"]
        if not (ns["a_to_b"] and ns["b_to_a"]):
            return f"no-signaling verdicts {ns['a_to_b']}, {ns['b_to_a']}"
        # The documented known failure: 4 Kraus operators, products of rank 10 of 16.
        if (analysis["n_kraus"], analysis["extremality_rank"]) != (4, 10):
            return f"extremality rank {analysis['extremality_rank']} of {analysis['n_kraus']}^2; expected 10 of 16"
        return None

    def cold_cases(self, state, rng):
        return [self.make_case(state, "reproduce", rng) for _ in range(9)]

    def param(self, case):
        return case["alpha"]


class _NoCli(Workload):
    """Cold start for workloads with no CLI command: ``nosigchan --help``."""

    def cold_cases(self, state, rng):
        return [{"kind": "help"} for _ in range(9)]

    def argv(self, state, case):
        return ["--help"]

    def check_cold(self, case, out):
        code, stdout, _ = out
        return None if code == 0 and stdout.startswith("usage:") else f"--help exit {code}"


def _piece(pkg, choi, ins, outs):
    t = pkg.tensor
    return pkg.channels.Channel(choi, t.SystemLayout(tuple(ins)), t.SystemLayout(tuple(outs)))


class Localizable(_NoCli):
    """build_localizable on random qubit pieces sharing a dim-d pair, then its verdicts."""

    name = "localizable"
    dims = (2, 3, 4, 5, 6)
    kinds = tuple(f"d={d}" for d in dims)
    instances = 3

    def setup(self, pkg, rng, workdir):
        pieces = {}
        for d in self.dims:
            pieces[d] = [
                (_piece(pkg, oracle.random_choi(rng, 2 * d, 4), [("A", 2), ("E_A", d)], [("A", 2), ("W_A", 2)]),
                 _piece(pkg, oracle.random_choi(rng, 2 * d, 4), [("B", 2), ("E_B", d)], [("W_B", 2), ("B", 2)]))
                for _ in range(self.instances)
            ]
        return {"pieces": pieces}

    def make_case(self, state, kind, rng):
        d = int(kind[2:])
        ga, gb = state["pieces"][d][int(rng.integers(self.instances))]
        return {"kind": kind, "d": d, "ga": ga, "gb": gb}

    def op(self, pkg, state, case):
        c = pkg.nosignal.build_localizable(case["ga"], case["gb"], case["d"])
        v = pkg.nosignal.signaling_verdict(c, ["A"], ["A", "W_A"], ["B"], ["W_B", "B"])
        return c.choi, v, pkg.analysis.chsh_value(c)

    def check(self, pkg, state, case, out):
        choi, v, chsh = out
        ref = oracle.localizable_choi(case["ga"].choi, case["gb"].choi, 4, 2, 4, 2, case["d"])
        err = _max_diff(choi, ref)
        if err > CHOI_TOL:
            return f"Choi differs from the link product by {err:.3e}"
        ref_a, ref_b = (oracle.nosignal_residual(ref, R_OUT, R_IN, o, i) for o, i in R_SIDES)
        problem = _check_verdicts(
            {"nosignaling": {"residual_a": v.residual_a, "residual_b": v.residual_b,
                             "a_to_b": v.a_to_b, "b_to_a": v.b_to_a}}, ref_a, ref_b, True)
        if problem:
            return problem
        ref_chsh = oracle.chsh(ref)
        if abs(chsh - ref_chsh) > VALUE_TOL or chsh > oracle.TSIRELSON + VALUE_TOL:
            return f"CHSH {chsh!r} vs reference {ref_chsh!r}"
        return None

    def param(self, case):
        return case["d"]


class Realize(_NoCli):
    """One-round classical-communication builds: teleportation and the R_alpha route."""

    name = "realize"
    relays = (2, 3, 4)
    kinds = tuple(f"teleport d={d}" for d in relays) + ("r_alpha B_to_A", "r_alpha A_to_B")
    instances = 3

    def setup(self, pkg, rng, workdir):
        pieces = {}
        for d in self.relays:
            pieces[d] = [
                (_piece(pkg, oracle.random_choi(rng, 2, 2 * d), [("A", 2)], [("A", 2), ("R", d)]),
                 _piece(pkg, oracle.random_choi(rng, 2 * d, 2), [("R", d), ("B", 2)], [("B", 2)]))
                for _ in range(self.instances)
            ]
        return {"pieces": pieces}

    def make_case(self, state, kind, rng):
        route, arg = kind.split(" ")
        if route == "teleport":
            d = int(arg[2:])
            v1, v2 = state["pieces"][d][int(rng.integers(self.instances))]
            return {"kind": kind, "d": d, "v1": v1, "v2": v2}
        return {"kind": kind, "alpha": _draw_alpha(rng), "direction": arg}

    def op(self, pkg, state, case):
        if "d" in case:
            return pkg.nosignal.teleport_realization(case["v1"], case["v2"]).choi
        return pkg.counterexample.build_r_alpha_realization(case["alpha"], case["direction"]).choi

    def check(self, pkg, state, case, out):
        if "d" in case:
            ref = oracle.semilocal_choi(case["v1"].choi, case["v2"].choi, 2, 2, case["d"], 2, 2)
            what = "the link product"
        else:
            ref = pkg.counterexample.build_r_alpha_kraus(case["alpha"]).choi
            what = "the Kraus route"
        err = _max_diff(out, ref)
        return f"Choi differs from {what} by {err:.3e}" if err > CHOI_TOL else None

    def param(self, case):
        return [case["kind"], case.get("alpha")]


# (Choi dim, input dim per party a, output dim per party o): Choi dim = (a * o)^2.
CHECK_SIZES = ((16, 2, 2), (64, 2, 4), (256, 4, 4))


class Check(Workload):
    """cli check on Choi files written during set-up: no builder runs."""

    name = "check"
    kinds = tuple(f"{k}-{n}" for k in ("random", "localizable") for n, _, _ in CHECK_SIZES) + (
        "r_alpha-64-0", "r_alpha-64-1")

    def setup(self, pkg, rng, workdir):
        files = {}
        for n, a, o in CHECK_SIZES:
            ins, outs = [("A", a), ("B", a)], [("A", o), ("B", o)]
            made = {
                "random": oracle.random_choi(rng, a * a, o * o),
                "localizable": oracle.localizable_choi(
                    oracle.random_choi(rng, 2 * a, o), oracle.random_choi(rng, 2 * a, o), o, a, o, a, 2),
            }
            for kind, choi in made.items():
                path = os.path.join(workdir, f"{kind}-{n}.json")
                pkg.choifile.save_channel(_piece(pkg, choi, ins, outs), path)
                files[f"{kind}-{n}"] = {"path": path, "choi": choi, "sender": "A", "receiver": "B",
                                        "out": [o, o], "in": [a, a], "sides": (([0], [0]), ([1], [1])),
                                        "nosignal": kind == "localizable", "chsh": None}
        for i in range(2):
            alpha = _draw_alpha(rng)
            path = os.path.join(workdir, f"r_alpha-64-{i}.json")
            code, _, err = run_cli(pkg.cli, ["export", "--alpha", repr(alpha), path])
            if code != 0:
                raise RuntimeError(f"export failed: {err}")
            files[f"r_alpha-64-{i}"] = {"path": path, "choi": None, "sender": "A,W_A", "receiver": "B,W_B",
                                        "out": R_OUT, "in": R_IN, "sides": R_SIDES, "nosignal": True,
                                        "chsh": oracle.r_alpha_chsh(alpha), "alpha": alpha}
        return {"files": files}

    def prepare(self, state):
        """Reference verdicts, computed from each file as written with plain json."""
        for f in state["files"].values():
            with open(f["path"]) as fh:
                cells = np.array(json.load(fh)["choi"], dtype=float)
            choi = cells[..., 0] + 1j * cells[..., 1]
            if f["choi"] is not None and not np.array_equal(choi, f["choi"]):
                raise RuntimeError(f"{f['path']} does not hold the generated Choi exactly")
            f["size"] = os.path.getsize(f["path"])
            f["ppt"] = oracle.ppt_min_eig(choi, int(np.prod(f["out"])), int(np.prod(f["in"])))
            f["residuals"] = [oracle.nosignal_residual(choi, f["out"], f["in"], o, i) for o, i in f["sides"]]

    def make_case(self, state, kind, rng):
        return {"kind": kind, "file": state["files"][kind]}

    def argv(self, state, case):
        f = case["file"]
        return ["check", f["path"], "--sender", f["sender"], "--receiver", f["receiver"]]

    def op(self, pkg, state, case):
        return run_cli(pkg.cli, self.argv(state, case))

    def check(self, pkg, state, case, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        f = case["file"]
        analysis = json.loads(stdout)["analysis"]
        if abs(analysis["ppt_min_eigenvalue"] - f["ppt"]) > VALUE_TOL:
            return f"PPT min eigenvalue {analysis['ppt_min_eigenvalue']!r} vs reference {f['ppt']!r}"
        problem = _check_verdicts(analysis, *f["residuals"], f["nosignal"])
        if problem:
            return problem
        chsh = analysis["chsh_value"]
        if (chsh is None) != (f["chsh"] is None) or (chsh is not None and abs(chsh - f["chsh"]) > VALUE_TOL):
            return f"CHSH {chsh!r} vs expected {f['chsh']!r}"
        return None

    def cold_cases(self, state, rng):
        return [self.make_case(state, k, rng) for _ in range(2) for k in self.kinds]

    def param(self, case):
        return case["kind"]

    def describe(self, state):
        return {k: {"bytes": f["size"], "choi_dim": int(np.prod(f["out"]) * np.prod(f["in"])),
                    **({"alpha": f["alpha"]} if "alpha" in f else {})}
                for k, f in state["files"].items()}


WORKLOADS = {w.name: w for w in (Reproduce(), Localizable(), Realize(), Check())}
