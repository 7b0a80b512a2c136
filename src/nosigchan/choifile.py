"""JSON interchange format for Choi operators.

Numbers are written as decimal via Python's shortest-round-trip float repr,
so serialize -> deserialize is exact on every double-precision entry.
"""
from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .tensor import SystemLayout
from .channels import Channel, ChannelError

FORMAT_VERSION = 1


class ChoiFileError(ValueError):
    """Malformed interchange file."""


def _layout_to_json(lay: SystemLayout):
    return [{"label": l, "dim": d} for l, d in lay.subsystems]


def _layout_from_json(items) -> SystemLayout:
    # SystemLayout rejects a label that is not a string and a dim that is not
    # an integer >= 1, bool included
    try:
        return SystemLayout(tuple((s["label"], s["dim"]) for s in items))
    except (KeyError, TypeError, ValueError) as exc:  # TensorError is a ValueError
        raise ChoiFileError(f"bad dims entry: {exc}") from exc


def channel_to_dict(c: Channel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "in_dims": _layout_to_json(c.in_layout),
        "out_dims": _layout_to_json(c.out_layout),
        "choi": np.stack([c.choi.real, c.choi.imag], axis=-1).tolist(),
    }


def channel_from_dict(data: dict) -> Channel:
    """The channel a parsed file describes; a boolean cell entry is an error."""
    if not isinstance(data, dict):
        raise ChoiFileError("top level must be an object")
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise ChoiFileError(f"unsupported format_version {version!r}")
    for key in ("in_dims", "out_dims", "choi"):
        if key not in data:
            raise ChoiFileError(f"missing field {key!r}")
    in_layout = _layout_from_json(data["in_dims"])
    out_layout = _layout_from_json(data["out_dims"])
    n = in_layout.total_dim * out_layout.total_dim
    rows = data["choi"]
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise ChoiFileError(f"choi matrix must be a list of {n} rows of {n} cells")
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ChoiFileError(f"bad matrix cell, need [real, imag]: {exc}") from exc
    try:
        c = Channel(m, in_layout, out_layout)
    except ChannelError as exc:
        raise ChoiFileError(str(exc)) from exc
    # complex() reads true and false as 1 and 0
    if bool in map(type, chain.from_iterable(chain.from_iterable(rows))):
        raise ChoiFileError("bad matrix cell: true/false is not a number")
    return c


def save_channel(c: Channel, path) -> None:
    """Write the file in one piece.  `json.dumps`, unlike `json.dump`, runs the
    C encoder, and a failed serialization leaves the path untouched."""
    text = json.dumps(channel_to_dict(c)) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_channel(path) -> Channel:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ChoiFileError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChoiFileError(f"not valid JSON: {exc}") from exc
    return channel_from_dict(data)
