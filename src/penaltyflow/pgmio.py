"""Binary PGM (P5, maxval 255) reading/writing and atomic file emission."""

import os
import re

import numpy as np

from .errors import FormatError, ParameterError

_HEADER = re.compile(rb"P5\s(-?\d+)\s(-?\d+)\s(\d+)\s")


def atomic_write_bytes(path, data):
    """Write bytes to ``path`` via a temp file and rename; no partial files.

    The file gets the mode a plain ``open(path, "wb")`` gives a new file,
    0o666 less the umask, which ``tempfile.mkstemp``'s 0o600 would not.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def write_pgm(path, img):
    """Write a [0, 1] image as binary PGM (P5, maxval 255, row-major)."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ParameterError("image must be 2-D")
    if not ((img >= -1e-9) & (img <= 1.0 + 1e-9)).all():  # NaN fails too
        raise ParameterError("pixels must lie in [0, 1]")
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + data.tobytes())


def read_pgm(path):
    """Read a binary PGM written by :func:`write_pgm`; returns a [0, 1] image.

    The header must be exactly what ``write_pgm`` writes: ``P5``, width, height
    and maxval 255, each followed by one whitespace byte. Comments and other
    PNM variants raise FormatError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] == b"P2":
        raise FormatError("ASCII (P2) PGM is not supported; use binary P5")
    if blob[:2] != b"P5":
        raise FormatError("not a PGM file (missing P5 magic)")
    header = _HEADER.match(blob)
    if header is None:
        raise FormatError("malformed or truncated PGM header")
    w, h, maxval = (int(t) for t in header.groups())
    if w < 1 or h < 1:
        raise FormatError(f"PGM size {w}x{h} must be at least 1x1")
    if maxval != 255:
        raise FormatError(f"unsupported PGM maxval {maxval} (need 255)")
    raster = blob[header.end():header.end() + w * h]
    if len(raster) != w * h:
        raise FormatError("PGM raster shorter than header promises")
    data = np.frombuffer(raster, dtype=np.uint8).reshape(h, w)
    return data.astype(float) / 255.0
