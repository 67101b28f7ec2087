"""Round-trip and corruption tests for the binary container formats."""

import errno
import struct

import numpy as np
import pytest

from crnet import storage
from crnet.storage import (
    FormatError,
    read_archive,
    tensor_from_bytes,
    tensor_to_bytes,
    write_archive,
    write_pfm,
    write_tensor,
)


class TestTensorContainer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip(self, tmp_path, dtype):
        arr = np.random.default_rng(0).normal(size=(2, 3, 4)).astype(dtype)
        path = tmp_path / "t.crt1"
        write_tensor(path, arr)
        back = tensor_from_bytes(path.read_bytes())[0]
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    def test_header_layout(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        buf = tensor_to_bytes(arr)
        assert buf[:4] == b"CRT1"
        version, code, ndim = struct.unpack_from("<III", buf, 4)
        assert (version, code, ndim) == (1, 0, 2)
        assert struct.unpack_from("<2I", buf, 16) == (2, 3)

    def test_scalar_shape(self):
        arr = np.float64(4.25).reshape(())
        back, used = tensor_from_bytes(tensor_to_bytes(np.asarray(arr)))
        assert back.shape == () and back == 4.25

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            tensor_from_bytes(b"XXXX" + b"\0" * 20)

    def test_truncated_payload_names_offset(self):
        buf = tensor_to_bytes(np.ones((4, 4), np.float32))
        with pytest.raises(FormatError, match="byte 0"):
            tensor_from_bytes(buf[:-8], context="short.crt1")

    def test_unknown_dtype_code(self):
        buf = bytearray(tensor_to_bytes(np.ones(2, np.float32)))
        struct.pack_into("<I", buf, 8, 9)
        with pytest.raises(FormatError, match="dtype"):
            tensor_from_bytes(bytes(buf))

    def test_dims_whose_int64_product_wraps_are_rejected(self):
        # 2**16 ** 4 = 2**64 wraps to 0 in int64; the size check must still see it
        buf = b"CRT1" + struct.pack("<III", 1, 0, 4) + struct.pack("<4I", *(1 << 16,) * 4) + b"\0" * 16
        with pytest.raises(FormatError, match="truncated payload"):
            tensor_from_bytes(buf)

    def test_truncated_or_corrupted_blob_raises_only_format_error(self):
        blobs = [
            tensor_to_bytes(np.arange(6, dtype=np.float32).reshape(2, 3)),
            tensor_to_bytes(np.array([1.5, -2.0], dtype=np.float64)),
            tensor_to_bytes(np.asarray(np.float64(4.25))),
        ]
        for raw in blobs:
            cases = [raw[:n] for n in range(len(raw))]
            for at in range(len(raw)):
                for value in b"\x00\x01\x02\x10\x7f\x80\xff":
                    cases.append(raw[:at] + bytes([value]) + raw[at + 1 :])
            for case in cases:
                try:
                    arr, used = tensor_from_bytes(case)
                except FormatError:
                    continue
                # A substitution that leaves a well-formed header reads back.
                assert len(case) == len(raw) and used <= len(case), case
                assert arr.dtype in (np.float32, np.float64)


class TestArchive:
    def test_roundtrip_preserves_order_and_bits(self, tmp_path):
        rng = np.random.default_rng(1)
        entries = {
            "alpha.weight": rng.normal(size=(3, 3)).astype(np.float32),
            "alpha.bias": rng.normal(size=(3,)).astype(np.float32),
            "times": np.array([1.0, 4.0], dtype=np.float64),
        }
        path = tmp_path / "a.crt1a"
        write_archive(path, entries)
        back = read_archive(path)
        assert list(back) == list(entries)
        for key in entries:
            assert np.array_equal(back[key], entries[key])
            assert back[key].dtype == entries[key].dtype

    def test_manifest_is_utf8_tab_separated(self, tmp_path):
        path = tmp_path / "a.crt1a"
        write_archive(path, {"x": np.zeros(2, np.float32)})
        raw = path.read_bytes()
        manifest = raw[: raw.find(b"\n\n")].decode("utf-8")
        name, offset, shape = manifest.split("\t")
        assert (name, offset, shape) == ("x", "0", "2")

    def test_truncated_archive_names_file(self, tmp_path):
        path = tmp_path / "a.crt1a"
        write_archive(path, {"x": np.ones((8, 8), np.float32)})
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError, match="a.crt1a"):
            read_archive(path)

    def test_missing_terminator(self, tmp_path):
        path = tmp_path / "a.crt1a"
        path.write_bytes(b"x\t0\t2\n" + b"garbage")
        with pytest.raises(FormatError, match="terminator"):
            read_archive(path)

    def test_truncated_or_corrupted_archive_raises_only_format_error(self, tmp_path):
        path = tmp_path / "a.crt1a"
        write_archive(path, {"w": np.zeros((2, 3), np.float32), "b": np.zeros(2, np.float32)})
        raw = path.read_bytes()
        cases = [raw[:n] for n in range(len(raw))]
        for at in range(len(raw)):
            for value in b"\x00\xffx-,9":
                cases.append(raw[:at] + bytes([value]) + raw[at + 1 :])
        for case in cases:
            path.write_bytes(case)
            try:
                read_archive(path)
            except FormatError:
                continue
            # A substitution in a payload or an entry name can still read
            # back as a well-formed archive; a truncation never does.
            assert len(case) == len(raw), case

    def test_negative_manifest_offset(self, tmp_path):
        path = tmp_path / "a.crt1a"
        write_archive(path, {"w": np.zeros(2, np.float32), "b": np.zeros(2, np.float32)})
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"\nb\t", b"\nb\t-", 1))
        with pytest.raises(FormatError, match="negative offset"):
            read_archive(path)

    @pytest.mark.parametrize("case", ["shared_offset", "gap", "trailing_bytes"])
    def test_blobs_must_tile_the_payload(self, tmp_path, case):
        blob = tensor_to_bytes(np.zeros(2, np.float32))
        n = len(blob)
        manifest, payload, message = {
            # Without the check, two names on one blob read back as two copies.
            "shared_offset": ("a\t0\t2\nb\t0\t2", blob, f"offset 0, expected {n}"),
            "gap": (f"a\t0\t2\nb\t{n + 4}\t2", blob + bytes(4) + blob, f"offset {n + 4}, expected {n}"),
            "trailing_bytes": (f"a\t0\t2\nb\t{n}\t2", blob + blob + b"\x00", "1 trailing bytes"),
        }[case]
        path = tmp_path / "a.crt1a"
        path.write_bytes(manifest.encode() + b"\n\n" + payload)
        with pytest.raises(FormatError, match=message):
            read_archive(path)

    def test_failed_write_keeps_previous_archive(self, tmp_path, monkeypatch):
        path = tmp_path / "a.crt1a"
        write_archive(path, {"x": np.ones(4, np.float32)})
        before = path.read_bytes()

        class FullDisk:
            """A file whose second write fails, as on a disk that fills up."""

            def __init__(self, *args):
                self.fh = open(*args)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(storage, "open", FullDisk, raising=False)
        with pytest.raises(OSError):
            write_archive(path, {"x": np.zeros(4, np.float32), "y": np.zeros(8, np.float32)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.crt1a"]

    def test_forbidden_entry_name(self, tmp_path):
        with pytest.raises(FormatError, match="forbidden"):
            write_archive(tmp_path / "a.crt1a", {"bad\tname": np.zeros(1, np.float32)})


class TestPFM:
    def test_grayscale_layout(self, tmp_path):
        img = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "x.pfm"
        write_pfm(path, img)
        raw = path.read_bytes()
        header, dims, scale, rest = raw.split(b"\n", 3)
        assert header == b"Pf"
        assert dims == b"3 2"
        assert scale == b"-1.0"
        decoded = np.frombuffer(rest, dtype="<f4").reshape(2, 3)[::-1]
        assert np.array_equal(decoded, img)

    def test_bad_shape_rejected(self, tmp_path):
        for shape in [(2, 2, 2), (4, 5, 3)]:  # colour PFM is not written either
            with pytest.raises(FormatError, match="PFM"):
                write_pfm(tmp_path / "x.pfm", np.zeros(shape, np.float32))
