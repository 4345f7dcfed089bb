"""Artifact files: atomic writes, and dataclass round-trips through JSON.

Every artifact is written to a temporary file in its own directory and then
moved into place with os.replace, so a stage that fails part-way leaves the
previous file, or none, but never a torn one.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import fields
from typing import Iterable

import numpy as np


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to path, all or nothing."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def to_dict(obj, exclude: Iterable[str] = ()) -> dict:
    """A dataclass's fields as JSON-ready values: arrays and tuples become lists."""
    out = {}
    for f in fields(obj):
        if f.name in exclude:
            continue
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def from_dict(cls, blob: dict, **given):
    """Inverse of to_dict: fields annotated as arrays or tuples get that type
    back. Keys of blob that are not fields are ignored; `given` supplies the
    fields to_dict left out."""
    values = dict(given)
    for f in fields(cls):
        if f.name in values:
            continue
        value = blob[f.name]
        annotation = str(f.type)
        if "ndarray" in annotation:
            value = np.array(value)
        elif annotation.startswith("tuple"):
            value = tuple(value)
        values[f.name] = value
    return cls(**values)
