"""Command-line harness: reproduce the counterexample verdicts, analyze and
export Choi operators.

Exit codes: 0 all checks pass, 1 a mathematical check fails, 2 usage / I-O /
parse error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import analysis, counterexample
from .channels import ChannelError
from .choifile import ChoiFileError, load_channel, save_channel
from .nosignal import NOSIGNAL_TOL

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _number_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _alpha_arg(text: str) -> float:
    value = _number_arg(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in [0, 1], got {value}")
    return value


def _labels_arg(text: str):
    labels = [l.strip() for l in text.split(",") if l.strip()]
    if not labels:
        raise argparse.ArgumentTypeError("empty label list")
    return labels


def _report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _split_party(c, labels):
    in_labels = [l for l in labels if l in c.in_layout.labels]
    out_labels = [l for l in labels if l in c.out_layout.labels]
    return in_labels, out_labels


def cmd_reproduce(args) -> int:
    alpha = args.alpha
    c_kraus = counterexample.build_r_alpha_kraus(alpha)
    c_circ_a = counterexample.build_r_alpha_circuit(
        alpha, counterexample.VARIANT_SIGMA_ON_A
    )
    c_circ_b = counterexample.build_r_alpha_circuit(
        alpha, counterexample.VARIANT_SIGMA_ON_B
    )
    res_kraus_circ = float(np.linalg.norm(c_kraus.choi - c_circ_a.choi))
    res_variants = float(np.linalg.norm(c_circ_a.choi - c_circ_b.choi))
    report = analysis.analyze(
        c_kraus,
        a_in_labels=["A"],
        a_out_labels=["A", "W_A"],
        b_in_labels=["B"],
        b_out_labels=["W_B", "B"],
    )
    checks = [
        ("construction equivalence (Kraus vs circuit)", res_kraus_circ <= NOSIGNAL_TOL),
        ("construction equivalence (circuit variants)", res_variants <= NOSIGNAL_TOL),
        ("no-signaling A side", report.nosignaling.a_to_b),
        ("no-signaling B side", report.nosignaling.b_to_a),
        ("PPT violated", report.ppt_violated),
        ("CHSH exceeds Tsirelson bound", bool(report.chsh_exceeds_tsirelson)),
        ("extremality rank full", report.extremality_full),
    ]
    out = {
        "alpha": alpha,
        "construction_equivalence": {
            "kraus_vs_circuit": res_kraus_circ,
            "circuit_variants": res_variants,
            "tolerance": NOSIGNAL_TOL,
        },
        "analysis": dataclasses.asdict(report),
        "checks": {name: ok for name, ok in checks},
    }
    text = _report_json(out)
    sys.stdout.write(text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.out}: {exc}\n")
            return EXIT_USAGE
    for name, ok in checks:
        if not ok:
            sys.stderr.write(f"FAILED: {name}\n")
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        c = load_channel(args.file)
    except (ChoiFileError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        c.validate()
    except ChannelError as exc:
        sys.stderr.write(f"not a channel: {exc}\n")
        return EXIT_CHECK_FAILED
    wires = set(c.in_layout.labels + c.out_layout.labels)
    unknown = [l for l in args.sender + args.receiver if l not in wires]
    if unknown:
        sys.stderr.write(f"error: no wire is labelled {', '.join(map(repr, unknown))}\n")
        return EXIT_USAGE
    a_in, a_out = _split_party(c, args.sender)
    b_in, b_out = _split_party(c, args.receiver)
    covered_in = sorted(a_in + b_in)
    covered_out = sorted(a_out + b_out)
    if covered_in != sorted(c.in_layout.labels) or covered_out != sorted(
        c.out_layout.labels
    ):
        sys.stderr.write(
            "error: sender and receiver labels must partition the channel's wires\n"
        )
        return EXIT_USAGE
    report = analysis.analyze(c, a_in, a_out, b_in, b_out)
    sys.stdout.write(_report_json({"file": args.file, "sender": args.sender,
                                   "receiver": args.receiver,
                                   "analysis": dataclasses.asdict(report)}))
    return EXIT_OK


def cmd_export(args) -> int:
    c = counterexample.build_r_alpha_kraus(args.alpha)
    try:
        save_channel(c, args.file)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.file}: {exc}\n")
        return EXIT_USAGE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nosigchan",
        description="Bipartite no-signaling channels and the counterexample family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="rebuild the counterexample and rerun its verdicts")
    p.add_argument("--alpha", type=_alpha_arg, default=1.0 / 6.0)
    p.add_argument("--out", help="also write the JSON report to this file")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("check", help="analyze a Choi operator file")
    p.add_argument("file")
    p.add_argument("--sender", type=_labels_arg, required=True,
                   help="comma-separated wire labels of the sender party")
    p.add_argument("--receiver", type=_labels_arg, required=True,
                   help="comma-separated wire labels of the receiver party")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export", help="write the counterexample Choi operator to a file")
    p.add_argument("--alpha", type=_alpha_arg, required=True)
    p.add_argument("file")
    p.set_defaults(func=cmd_export)
    return parser


# parse_args leaves the parser unchanged, so one serves every call in a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
