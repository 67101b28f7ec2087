"""On-disk formats: CRT1 tensor containers, multi-tensor archives, PFM.

CRT1 layout, all integers little-endian:
    magic 'CRT1' | u32 version (=1) | u32 dtype (0=f32, 1=f64) |
    u32 ndim | u32 dims[ndim] | payload, row-major.

An archive holds several named CRT1 blobs behind a text manifest:
ordered ``path<TAB>offset<TAB>shape`` lines (UTF-8, LF endings), a blank
line, then the concatenated blobs. Offsets are relative to the first
payload byte. Checkpoints and dataset shards both use this container.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Dict

import numpy as np

MAGIC = b"CRT1"
VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class FormatError(Exception):
    """Malformed or inconsistent on-disk data."""


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    shape = arr.shape  # before ascontiguousarray, which lifts 0-d to 1-d
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODE_FOR:
        raise FormatError(f"unsupported dtype {arr.dtype}; only float32/float64 are stored")
    code = _CODE_FOR[arr.dtype]
    header = MAGIC + struct.pack("<III", VERSION, code, len(shape))
    header += struct.pack(f"<{len(shape)}I", *shape)
    return header + arr.astype(f"<f{arr.itemsize}").tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0, context: str = "<memory>") -> tuple:
    """Decode one CRT1 blob; returns (array, bytes consumed)."""

    def fail(msg: str):
        raise FormatError(f"{context} @ byte {offset}: {msg}")

    if len(buf) - offset < 16:
        fail("truncated header")
    if buf[offset : offset + 4] != MAGIC:
        fail(f"bad magic {buf[offset:offset + 4]!r}")
    version, code, ndim = struct.unpack_from("<III", buf, offset + 4)
    if version != VERSION:
        fail(f"unsupported version {version}")
    if code not in _DTYPE_CODES:
        fail(f"unknown dtype code {code}")
    dims_at = offset + 16
    if len(buf) - dims_at < 4 * ndim:
        fail("truncated dims")
    dims = struct.unpack_from(f"<{ndim}I", buf, dims_at)
    dtype = _DTYPE_CODES[code]
    count = math.prod(dims)  # Python ints: an int64 product can wrap to a size that passes
    payload_at = dims_at + 4 * ndim
    nbytes = count * dtype.itemsize
    if len(buf) - payload_at < nbytes:
        fail(f"truncated payload, need {nbytes} bytes")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=payload_at).reshape(dims)
    return arr.copy(), payload_at + nbytes - offset


def write_tensor(path, arr: np.ndarray) -> None:
    Path(path).write_bytes(tensor_to_bytes(arr))


def read_tensor(path) -> np.ndarray:
    arr, _ = tensor_from_bytes(Path(path).read_bytes(), context=str(path))
    return arr


def write_archive(path, entries: Dict[str, np.ndarray]) -> None:
    """Write named tensors as one archive; iteration order is preserved."""
    blobs = []
    manifest_lines = []
    offset = 0
    for name, arr in entries.items():
        if "\t" in name or "\n" in name:
            raise FormatError(f"archive entry name {name!r} contains forbidden characters")
        blob = tensor_to_bytes(np.asarray(arr))
        shape = ",".join(str(d) for d in np.asarray(arr).shape)
        manifest_lines.append(f"{name}\t{offset}\t{shape}")
        blobs.append(blob)
        offset += len(blob)
    manifest = "\n".join(manifest_lines) + "\n\n"
    # Written beside path, synced, then renamed over it: a write that fails
    # or is cut off leaves the previous file at path untouched.
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(manifest.encode("utf-8"))
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_archive(path) -> Dict[str, np.ndarray]:
    """Read an archive back into an ordered name -> array mapping."""
    raw = Path(path).read_bytes()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise FormatError(f"{path}: no manifest terminator found")
    try:
        manifest = raw[:sep].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not UTF-8 ({exc})") from None
    payload_at = sep + 2
    out: Dict[str, np.ndarray] = {}
    for lineno, line in enumerate(manifest.split("\n"), start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(f"{path}: manifest line {lineno} is not 'path<TAB>offset<TAB>shape'")
        name, offset_s, shape_s = fields
        if name in out:
            raise FormatError(f"{path}: duplicate entry {name!r}")
        try:
            offset = int(offset_s)
            expect = tuple(int(s) for s in shape_s.split(",") if s != "")
        except ValueError:
            raise FormatError(f"{path}: manifest line {lineno} has bad offset or shape {line!r}") from None
        if offset < 0:
            raise FormatError(f"{path}: manifest line {lineno} has negative offset {offset}")
        arr, _ = tensor_from_bytes(raw, payload_at + offset, context=str(path))
        if arr.shape != expect:
            raise FormatError(
                f"{path} entry {name!r}: manifest shape {expect} != stored shape {arr.shape}"
            )
        out[name] = arr
    return out


# -- PFM export --------------------------------------------------------------


def write_pfm(path, image: np.ndarray) -> None:
    """Write a float image as PFM (little-endian, scale -1.0).

    Accepts [H, W] grayscale or [H, W, 3] color. PFM stores rows
    bottom-to-top.
    """
    image = np.asarray(image, dtype=np.float32)
    if image.ndim == 2:
        header = b"Pf"
    elif image.ndim == 3 and image.shape[2] == 3:
        header = b"PF"
    else:
        raise FormatError(f"PFM needs [H,W] or [H,W,3], got shape {image.shape}")
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        fh.write(f"{w} {h}\n".encode())
        fh.write(b"-1.0\n")
        fh.write(np.ascontiguousarray(image[::-1]).astype("<f4").tobytes())
