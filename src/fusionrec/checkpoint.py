"""Byte-stable checkpoint format.

Layout: magic line, one ASCII line with the header byte length, a JSON header
(sorted keys) naming the kind, config, index maps, and array shapes, then the
arrays concatenated as little-endian float64 in row-major order. No
timestamps or environment-dependent fields, so identical runs produce
identical files. Files are written atomically (see `atomic_open`).
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .errors import DataError

_MAGIC = b"FRCKPT1\n"


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temp file beside `path` and rename it over `path` on success.

    If the body raises, the temp file is removed and `path` keeps whatever
    it held before, so a crash never leaves a half-written artifact.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _bytes_of(array: np.ndarray) -> np.ndarray:
    """A flat uint8 view of a C-contiguous array's buffer, for file writes and reads."""
    return array.reshape(-1).view(np.uint8)


def save_checkpoint(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    names = sorted(arrays)
    header = {
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
        "kind": kind,
        "meta": meta,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(_MAGIC)
        fh.write(f"{len(header_bytes)}\n".encode("ascii"))
        fh.write(header_bytes)
        fh.write(b"\n")
        for n in names:
            # no copy of an array that is already contiguous little-endian float64
            fh.write(_bytes_of(np.ascontiguousarray(arrays[n], dtype="<f8")))


def _read_header(fh, path) -> tuple[str, dict, list[tuple[str, tuple[int, ...]]]]:
    """Kind, meta and array entries of a file whose size matches them; leaves
    `fh` at the start of the payload. The meta must be a JSON object, each
    name a distinct string and each shape a list of non-negative integers."""
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    length_line = fh.readline()
    try:
        header_len = int(length_line.strip())
    except ValueError:
        raise DataError(f"{path}: corrupt header length") from None
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
        kind, meta = header["kind"], header["meta"]
        entries = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: corrupt header ({type(exc).__name__}: {exc})") from None
    if not isinstance(meta, dict):
        raise DataError(f"{path}: corrupt header (meta is not a JSON object)")
    fh.read(1)  # trailing newline
    # the file must end where the header's arrays do; its size is checked, not read
    end, size = fh.tell(), os.fstat(fh.fileno()).st_size
    seen: set[str] = set()
    for name, shape in entries:
        # `type(n) is int`, since bool subclasses int and `true` is no dimension
        if not isinstance(name, str) or not all(type(n) is int and n >= 0 for n in shape):
            raise DataError(f"{path}: corrupt header (array {name!r} of shape {list(shape)})")
        if name in seen:
            raise DataError(f"{path}: corrupt header (array {name!r} named twice)")
        seen.add(name)
        end += 8 * math.prod(shape)
        if end > size:
            raise DataError(f"{path}: truncated array payload for {name!r}")
    if end != size:
        raise DataError(f"{path}: {size - end} bytes after the array payload")
    return kind, meta, entries


def load_checkpoint(path, kind: str | None = None) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Kind, meta and arrays of a checkpoint. A file that cannot be opened, or
    given `kind` a checkpoint of another kind, is a DataError."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    with fh:
        found, meta, entries = _read_header(fh, path)
        if kind is not None and found != kind:
            raise DataError(f"{path} holds a {found!r} checkpoint, expected {kind}")
        arrays: dict[str, np.ndarray] = {}
        for name, shape in entries:
            array = np.empty(shape, dtype="<f8")
            if fh.readinto(_bytes_of(array)) != array.nbytes:
                raise DataError(f"{path}: truncated array payload for {name!r}")
            arrays[name] = array
    return found, meta, arrays
