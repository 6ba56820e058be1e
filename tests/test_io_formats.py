"""Binary bundle format, synthetic generator, and JSON result documents."""

import contextlib
import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokentrim
from tokentrim import (
    PruneConfig,
    SyntheticSpec,
    TokenTrimError,
    analyze,
    build_token_matrix,
    generate_synthetic,
    make_bundle,
    prune,
    read_bundle,
    write_bundle,
    write_result,
)
from tokentrim.errors import (
    BadConfig,
    BadMagic,
    BadSpec,
    BadVersion,
    IoFailure,
    NonFiniteRow,
    SelectionMismatch,
    ShapeMismatch,
    TruncatedFile,
    ZeroNormRow,
)
from tokentrim import io_formats, types
from tokentrim.io_formats import result_document
from tokentrim.metrics import (
    inter_variation_mean,
    inter_variation_steps,
    intra_diversity_fast,
    intra_diversity_mean,
)
from tokentrim.types import resolve_config


def random_bundle(rng, sizes, dim, text_rows=5):
    images = [
        build_token_matrix(m, dim, rng.standard_normal(m * dim)) for m in sizes
    ]
    text = build_token_matrix(text_rows, dim, rng.standard_normal(text_rows * dim))
    return make_bundle(images, text)


_FSTAT = os.fstat


def race_size(monkeypatch, path, delta: int) -> None:
    """The file at ``path`` loses or gains ``delta`` bytes right after
    read_bundle takes its size."""

    def racing_fstat(fd):
        info = _FSTAT(fd)
        if delta < 0:
            os.truncate(path, info.st_size + delta)
        else:
            with open(path, "ab") as fh:
                fh.write(bytes(delta))
        return info

    monkeypatch.setattr(os, "fstat", racing_fstat)


@contextlib.contextmanager
def leaves_nothing_open():
    """The block ends with as many threads and descriptors as it began."""
    fd_dir = "/proc/self/fd"
    fds = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
    threads = threading.active_count()
    yield
    assert threading.active_count() == threads
    if fds is not None:
        assert len(os.listdir(fd_dir)) == fds


@pytest.fixture(scope="module")
def large_bytes():
    """A TTB1 file of 1100 rows at dim 1024 (4.5 MB): its payload spans
    several of the reader thread's pieces, so the widening pass runs while
    the read is still going."""
    rows = np.random.default_rng(21).standard_normal((1100, 1024))
    data = ttb1_bytes([500, 400, 176], 24, 1024, rows)
    assert len(data) > 4 * io_formats._PIECE
    return data


class TestBinaryRoundTrip:
    def test_random_bundles(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(1, 6))
            sizes = [int(m) for m in rng.integers(1, 40, size=n)]
            dim = int(rng.integers(1, 48))
            text_rows = int(rng.integers(0, 9))
            bundle = random_bundle(rng, sizes, dim, text_rows)
            path = tmp_path / f"b{trial}.ttb"
            write_bundle(bundle, path)
            back = read_bundle(path)
            assert back.n_images == n and back.dim == dim
            for got, want in zip(back.images, bundle.images):
                np.testing.assert_array_equal(got.data, want.data)
            np.testing.assert_array_equal(back.text.data, bundle.text.data)

    def test_empty_text_allowed(self, tmp_path):
        rng = np.random.default_rng(1)
        bundle = random_bundle(rng, [3], dim=4, text_rows=0)
        path = tmp_path / "notext.ttb"
        write_bundle(bundle, path)
        assert read_bundle(path).text.rows == 0

    def test_file_size_is_exactly_header_plus_payload(self, tmp_path):
        rng = np.random.default_rng(2)
        bundle = random_bundle(rng, [7, 2], dim=3, text_rows=4)
        path = tmp_path / "sized.ttb"
        write_bundle(bundle, path)
        want = 20 + 4 * 2 + 4 * 3 * (7 + 2 + 4)
        assert path.stat().st_size == want


class TestMalformedFiles:
    @pytest.fixture
    def good_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        bundle = random_bundle(rng, [4, 6], dim=5, text_rows=2)
        path = tmp_path / "good.ttb"
        write_bundle(bundle, path)
        return path.read_bytes()

    def test_bad_magic(self, tmp_path, good_bytes):
        path = tmp_path / "magic.ttb"
        path.write_bytes(b"XXXX" + good_bytes[4:])
        with pytest.raises(BadMagic):
            read_bundle(path)

    def test_bad_version(self, tmp_path, good_bytes):
        path = tmp_path / "version.ttb"
        path.write_bytes(good_bytes[:4] + struct.pack("<I", 2) + good_bytes[8:])
        with pytest.raises(BadVersion):
            read_bundle(path)

    def test_truncated_header(self, tmp_path, good_bytes):
        path = tmp_path / "header.ttb"
        path.write_bytes(good_bytes[:10])
        with pytest.raises(TruncatedFile):
            read_bundle(path)

    def test_truncated_counts(self, tmp_path, good_bytes):
        path = tmp_path / "counts.ttb"
        path.write_bytes(good_bytes[:22])  # header + half a count
        with pytest.raises(TruncatedFile):
            read_bundle(path)

    def test_truncated_mid_row(self, tmp_path, good_bytes, large_bytes):
        for data in (good_bytes, large_bytes):
            path = tmp_path / "midrow.ttb"
            path.write_bytes(data[:-5])
            with leaves_nothing_open(), pytest.raises(TruncatedFile):
                read_bundle(path)

    def test_trailing_garbage(self, tmp_path, good_bytes):
        path = tmp_path / "trailing.ttb"
        path.write_bytes(good_bytes + b"\x00")
        with pytest.raises(TruncatedFile):
            read_bundle(path)

    def test_bad_magic_reads_no_payload(self, tmp_path):
        """The header is checked before the payload is allocated, so a bad
        magic in front of a 64 MB payload costs well under 1 MB."""
        path = tmp_path / "big.ttb"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sIIII", b"XXXX", 1, 1, 0, 1024))
            fh.write(struct.pack("<I", 16384))
            fh.truncate(20 + 4 + 64 * 2**20)  # 16384 rows of 1024 floats
        tracemalloc.start()
        try:
            with pytest.raises(BadMagic):
                read_bundle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("change", ["shrink", "grow"])
    def test_file_changes_size_while_read(
        self, tmp_path, monkeypatch, good_bytes, large_bytes, change
    ):
        """The file loses or gains 8 bytes right after its size is taken:
        the payload read comes up short, or bytes follow it."""
        for name, data in (("small", good_bytes), ("large", large_bytes)):
            path = tmp_path / f"{change}-{name}.ttb"
            path.write_bytes(data)
            race_size(monkeypatch, path, -8 if change == "shrink" else 8)
            with leaves_nothing_open(), pytest.raises(TruncatedFile):
                read_bundle(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
    def test_fifo_input_is_refused(self, tmp_path):
        """A FIFO is not a regular file: the CLI fails at load-input with
        IoFailure's exit code instead of waiting for a writer."""
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)
        src = str(Path(tokentrim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "tokentrim.cli", "prune", "--input", str(fifo),
             "--output", str(tmp_path / "out.json")],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == 27
        assert proc.stderr.startswith("tokentrim prune: stage load-input: IoFailure:")
        with pytest.raises(IoFailure, match="not a regular file"):
            read_bundle(fifo)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_directory_input_is_refused_without_a_leak(self, tmp_path):
        """A directory opens, but it is not a regular file: each read raises
        IoFailure naming it and closes its descriptor."""
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            with pytest.raises(IoFailure, match="not a regular file"):
                read_bundle(tmp_path)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_io_failures(self, tmp_path):
        with pytest.raises(IoFailure):
            read_bundle(tmp_path / "does-not-exist.ttb")
        rng = np.random.default_rng(4)
        bundle = random_bundle(rng, [2], dim=2)
        with pytest.raises(IoFailure):
            write_bundle(bundle, tmp_path / "missing-dir" / "out.ttb")

    def test_arguments_of_the_wrong_kind(self, tmp_path):
        """A path that is not a str, bytes or os.PathLike raises IoFailure
        and a bundle that is not a TokenBundle ShapeMismatch, before any
        file is touched."""
        rng = np.random.default_rng(4)
        bundle = random_bundle(rng, [3], dim=2)
        report, sel = prune(bundle, PruneConfig(final_tokens=2))
        calls = (
            (lambda: read_bundle(None), IoFailure),
            (lambda: read_bundle(3), IoFailure),
            (lambda: write_bundle(bundle, None), IoFailure),
            (lambda: write_bundle(None, tmp_path / "out.ttb"), ShapeMismatch),
            (lambda: write_result(report, sel, None), IoFailure),
            (lambda: write_result(report, sel, 1), IoFailure),
        )
        for call, error in calls:
            with pytest.raises(error, match="must be of type"):
                call()
        assert list(tmp_path.iterdir()) == []

    def test_paths_the_os_cannot_take(self, tmp_path):
        """A path holding a NUL byte, or a lone surrogate the file system
        encoding cannot encode, raises IoFailure, not open's ValueError."""
        rng = np.random.default_rng(4)
        bundle = random_bundle(rng, [3], dim=2)
        report, sel = prune(bundle, PruneConfig(final_tokens=2))
        for path in (f"{tmp_path}/a\x00b", os.fsencode(tmp_path) + b"/\x00"):
            for call in (
                lambda: read_bundle(path),
                lambda: write_bundle(bundle, path),
                lambda: write_result(report, sel, path),
            ):
                with pytest.raises(IoFailure):
                    call()
        with pytest.raises(IoFailure, match="surrogates not allowed"):
            read_bundle("\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_documents_and_specs_of_the_wrong_kind(self, tmp_path):
        """A report or selection of the wrong type raises SelectionMismatch,
        a config or budgets BadConfig and a generator spec BadSpec, before
        any file is written."""
        rng = np.random.default_rng(4)
        bundle = random_bundle(rng, [3], dim=2)
        cfg = PruneConfig(final_tokens=2, retention_ratio=None)
        report, sel = prune(bundle, cfg)
        hostile = types.ResolvedBudgets(object(), 1, 1, 1, 1)
        path = tmp_path / "out.json"
        calls = (
            (lambda: write_result(None, sel, path), SelectionMismatch),
            (lambda: write_result(report, None, path), SelectionMismatch),
            (lambda: write_result(report, sel, path, cfg="abc"), BadConfig),
            (lambda: write_result(report, sel, path, cfg, budgets=1), BadConfig),
            (lambda: write_result(report, sel, path, cfg, hostile), BadConfig),
            (lambda: generate_synthetic(None), BadSpec),
        )
        for call, error in calls:
            with pytest.raises(error, match="must be of type"):
                call()
        assert list(tmp_path.iterdir()) == []

    def test_rows_share_the_read_buffer(self, tmp_path):
        """The rows are the buffer the payload was read into, not a copy of
        it: reading a 4 MB payload peaks near 4 MB."""
        rng = np.random.default_rng(5)
        bundle = random_bundle(rng, [1000], dim=1024, text_rows=24)
        path = tmp_path / "rows.ttb"
        write_bundle(bundle, path)
        tracemalloc.start()
        try:
            got = read_bundle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * got.rows.data.nbytes
        np.testing.assert_array_equal(got.rows.data, bundle.rows.data)


def ttb1_bytes(counts, n_text, dim, rows) -> bytes:
    """A TTB1 file written by hand, so it may hold rows no bundle accepts."""
    header = struct.pack("<4sIIII", b"TTB1", 1, len(counts), n_text, dim)
    counts_raw = struct.pack(f"<{len(counts)}I", *counts)
    return header + counts_raw + np.asarray(rows, dtype="<f4").tobytes()


class TestBadRowsInFiles:
    def rows_with(self, value, at):
        rows = np.random.default_rng(5).standard_normal((3 + 4 + 5 + 2, 6))
        rows[at] = value
        return rows

    def test_zero_row_reports_bundle_index(self, tmp_path):
        path = tmp_path / "zero.ttb"
        at = 3 + 4 + 1  # second row of image 2
        path.write_bytes(ttb1_bytes([3, 4, 5], 2, 6, self.rows_with(0.0, at)))
        with pytest.raises(ZeroNormRow) as err:
            read_bundle(path)
        assert err.value.index == at

    def test_non_finite_row_reports_bundle_index(self, tmp_path):
        for value in (np.nan, np.inf):
            path = tmp_path / "nan.ttb"
            rows = self.rows_with(1.0, 12)
            rows[12, 4] = value  # one bad value in the first text row
            path.write_bytes(ttb1_bytes([3, 4, 5], 2, 6, rows))
            with pytest.raises(NonFiniteRow) as err:
                read_bundle(path)
            assert err.value.index == 12

    def test_header_arithmetic_edges(self, tmp_path):
        cases = [
            (ShapeMismatch, ttb1_bytes([1], 0, 0, [])),  # dim 0, exact size
            (ShapeMismatch, ttb1_bytes([], 0, 4, [])),  # no images
            (ShapeMismatch, ttb1_bytes([0], 1, 2, [[1, 0]])),  # empty image
            (TruncatedFile, ttb1_bytes([2**32 - 1], 0, 2, [[1, 0]])),
            (TruncatedFile, ttb1_bytes([1], 2**32 - 1, 2**32 - 1, [[1, 0]])),
            (
                TruncatedFile,
                struct.pack("<4sIIII", b"TTB1", 1, 2**32 - 1, 0, 1),
            ),
        ]
        for want, payload in cases:
            path = tmp_path / "edge.ttb"
            path.write_bytes(payload)
            with pytest.raises(want):
                read_bundle(path)


class TestThreadedRead:
    """One reader thread fills the payload while the rows are widened."""

    def write(self, tmp_path, data: bytes, name="large.ttb"):
        path = tmp_path / name
        path.write_bytes(data)
        return path

    def view_sums(self, bundle) -> bytes:
        """The bytes of each image's and the text's sums, in row order."""
        return b"".join(v.row_sums().tobytes() for v in (*bundle.images, bundle.text))

    def test_sums_equal_one_plain_widening(self, tmp_path, large_bytes):
        with leaves_nothing_open():
            bundle = read_bundle(self.write(tmp_path, large_bytes))
        got = bundle.rows
        rows = np.frombuffer(large_bytes, "<f4", offset=20 + 4 * 3).reshape(-1, 1024)
        norms_sq, sums = types._widen(rows, (500, 900, 1076, 1100))
        assert got.norms_sq.tobytes() == norms_sq.tobytes()
        assert self.view_sums(bundle) == sums.tobytes()
        np.testing.assert_array_equal(got.data, rows)

    def test_each_read_starts_one_thread(self, tmp_path, monkeypatch, large_bytes):
        """A good file, a bad row and a file that shrinks while read: each
        read starts one thread and has ended it when it returns or raises."""
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        good = self.write(tmp_path, large_bytes)
        nan = self.write(tmp_path, self.nan_first_row(large_bytes), "nan.ttb")
        for path, error in ((good, None), (nan, NonFiniteRow), (good, TruncatedFile)):
            if error is TruncatedFile:
                race_size(monkeypatch, path, -8)
            started.clear()
            with leaves_nothing_open(), contextlib.ExitStack() as stack:
                if error is not None:
                    stack.enter_context(pytest.raises(error))
                read_bundle(path)
            assert len(started) == 1 and not started[0].is_alive()

    def test_concurrent_reads_with_small_pieces(self, tmp_path, monkeypatch, large_bytes):
        """Three reads at once on two cores, in pieces that end inside a
        float, under a 1 µs switch interval: every chunk still waits for
        all of its bytes, so each read gives the same rows and sums."""
        want = read_bundle(self.write(tmp_path, large_bytes))
        path = self.write(tmp_path, large_bytes, "shared.ttb")
        monkeypatch.setattr(io_formats, "_PIECE", 4096 + 3)
        results = []

        def reader():
            for _ in range(2):
                got = read_bundle(path)
                results.append(
                    got.rows.data.tobytes() == want.rows.data.tobytes()
                    and got.rows.norms_sq.tobytes() == want.rows.norms_sq.tobytes()
                    and self.view_sums(got) == self.view_sums(want)
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [True] * 6

    def nan_first_row(self, large_bytes: bytes) -> bytes:
        data = bytearray(large_bytes)
        data[20 + 4 * 3 : 24 + 4 * 3] = struct.pack("<f", math.nan)
        return bytes(data)

    def test_bad_row_while_reading(self, tmp_path, large_bytes):
        """The build stops at row 0 while the read goes on; the read ends
        before the error comes out."""
        path = self.write(tmp_path, self.nan_first_row(large_bytes))
        with leaves_nothing_open(), pytest.raises(NonFiniteRow) as err:
            read_bundle(path)
        assert err.value.index == 0

    def test_read_error_wins_over_a_bad_row(self, tmp_path, monkeypatch, large_bytes):
        """A NaN in row 0 of a file that shrinks while read: TruncatedFile,
        as a read finished before the build would raise."""
        path = self.write(tmp_path, self.nan_first_row(large_bytes))
        race_size(monkeypatch, path, -8)
        with leaves_nothing_open(), pytest.raises(TruncatedFile):
            read_bundle(path)

    def test_os_error_in_the_reader(self, tmp_path, monkeypatch, large_bytes):
        """An OSError past the first piece raises IoFailure, also when
        row 0 is NaN, and the descriptor is closed."""

        class FailingFile(io.FileIO):
            def readinto(self, buf):
                if self.tell() > io_formats._PIECE:
                    raise OSError(5, "injected read error")
                return super().readinto(buf)

        monkeypatch.setattr(
            io_formats, "open", lambda fd, *a, **k: FailingFile(fd), raising=False
        )
        for data in (large_bytes, self.nan_first_row(large_bytes)):
            path = self.write(tmp_path, data)
            with leaves_nothing_open(), pytest.raises(IoFailure, match="injected"):
                read_bundle(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _good_fuzz_file() -> bytes:
    rows = np.random.default_rng(6).standard_normal((3 + 2 + 2, 4))
    rows[0, :2] = (1.5, 1.0)  # flipping bit 6 of the top byte: NaN, +inf
    return ttb1_bytes([3, 2], 2, 4, rows)


GOOD_FUZZ = _good_fuzz_file()
_PAYLOAD = 20 + 4 * 2  # header, then two image counts


def _read_and_analyze(path, payload: bytes) -> None:
    """Either both steps succeed or a TokenTrimError comes out."""
    path.write_bytes(payload)
    try:
        analyze(read_bundle(path), PruneConfig())
    except TokenTrimError:
        pass


class TestReadBundleFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        at=st.integers(0, len(GOOD_FUZZ) - 1),
        flip=st.integers(1, 255),
    )
    @example(at=16, flip=4)  # dim 0
    @example(at=11, flip=0x80)  # huge n_images
    @example(at=15, flip=0x80)  # huge n_text
    @example(at=20, flip=1)  # image counts no longer match the payload
    @example(at=_PAYLOAD + 3, flip=0x40)  # NaN payload value
    @example(at=_PAYLOAD + 7, flip=0x40)  # +inf payload value
    def test_single_byte_flip(self, fuzz_dir, at, flip):
        data = bytearray(GOOD_FUZZ)
        data[at] ^= flip
        _read_and_analyze(fuzz_dir / "flip.ttb", bytes(data))

    @settings(derandomize=True, deadline=None)
    @given(length=st.integers(0, len(GOOD_FUZZ)))
    def test_truncation(self, fuzz_dir, length):
        _read_and_analyze(fuzz_dir / "cut.ttb", GOOD_FUZZ[:length])


class TestSyntheticGenerator:
    def test_deterministic_bytes(self, tmp_path):
        spec = SyntheticSpec(
            n_images=3, tokens_per_image=12, dim=8, seed=42, clusters=3,
            noise=0.1, drift=0.2,
        )
        a, b = tmp_path / "a.ttb", tmp_path / "b.ttb"
        write_bundle(generate_synthetic(spec), a)
        write_bundle(generate_synthetic(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self):
        base = dict(n_images=2, tokens_per_image=6, dim=8, clusters=2, noise=0.3)
        one = generate_synthetic(SyntheticSpec(seed=1, **base))
        two = generate_synthetic(SyntheticSpec(seed=2, **base))
        assert not np.array_equal(one.images[0].data, two.images[0].data)

    def test_degenerate_spec_collapses_everything(self):
        spec = SyntheticSpec(n_images=3, tokens_per_image=10, dim=6, seed=5)
        bundle = generate_synthetic(spec)
        first = bundle.images[0].data[0]
        for img in bundle.images:
            np.testing.assert_array_equal(
                img.data, np.tile(first, (10, 1))
            )
        steps = inter_variation_steps(bundle)
        assert inter_variation_mean(steps) == pytest.approx(0.0, abs=1e-7)

    def test_orthonormal_clusters_hit_max_diversity(self):
        spec = SyntheticSpec(
            n_images=1, tokens_per_image=8, dim=16, seed=6, clusters=8
        )
        bundle = generate_synthetic(spec)
        assert intra_diversity_fast(bundle.images[0]) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_more_clusters_than_dim_still_works(self):
        spec = SyntheticSpec(
            n_images=1, tokens_per_image=20, dim=3, seed=7, clusters=20
        )
        bundle = generate_synthetic(spec)
        assert bundle.images[0].rows == 20

    def test_bad_specs(self):
        good = dict(n_images=1, tokens_per_image=4, dim=4, seed=0)
        with pytest.raises(BadSpec):
            SyntheticSpec(**{**good, "n_images": 0})
        with pytest.raises(BadSpec):
            SyntheticSpec(**{**good, "tokens_per_image": 0})
        with pytest.raises(BadSpec):
            SyntheticSpec(**{**good, "dim": 0})
        with pytest.raises(BadSpec):
            SyntheticSpec(**{**good, "seed": -1})
        with pytest.raises(BadSpec):
            SyntheticSpec(**{**good, "clusters": 5})  # more than tokens
        with pytest.raises(BadSpec):
            SyntheticSpec(**{**good, "clusters": 0})
        with pytest.raises(BadSpec):
            SyntheticSpec(**{**good, "noise": -0.1})
        with pytest.raises(BadSpec):
            SyntheticSpec(**{**good, "drift": -0.1})
        for field in ("noise", "drift"):
            for value in (math.nan, math.inf):
                with pytest.raises(BadSpec, match=f"{field} must be finite"):
                    SyntheticSpec(**{**good, field: value})
        with pytest.raises(BadSpec):
            SyntheticSpec(**{**good, "text_tokens": -1})
        for field, value in (
            ("tokens_per_image", 4.0),
            ("n_images", True),
            ("seed", True),
            ("text_tokens", 2.5),
            ("noise", "0.3"),
        ):
            with pytest.raises(BadSpec, match=field):
                SyntheticSpec(**{**good, field: value})
        spec = SyntheticSpec(**{**good, "n_images": np.int64(2)})
        assert type(spec.n_images) is int

    def test_noise_and_drift_are_capped(self):
        """Beyond 1e8 noise or drift raises BadSpec, without a numpy
        warning; at the cap the generator's rows stay finite."""
        good = dict(n_images=2, tokens_per_image=4, dim=4, seed=0, clusters=2)
        for field in ("noise", "drift"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for value in (1e308, 10**400, np.nextafter(1e8, np.inf)):
                    with pytest.raises(BadSpec, match=field):
                        SyntheticSpec(**{**good, field: value})
                bundle = generate_synthetic(SyntheticSpec(**{**good, field: 1e8}))
            assert np.all(np.isfinite(bundle.rows.data))

    def test_noise_raises_intra_diversity(self):
        means = []
        for noise in (0.01, 0.1, 0.5):
            acc = 0.0
            for seed in range(50):
                spec = SyntheticSpec(
                    n_images=1, tokens_per_image=32, dim=16, seed=seed,
                    clusters=1, noise=noise,
                )
                _, mean = intra_diversity_mean(generate_synthetic(spec))
                acc += mean
            means.append(acc / 50)
        assert means[0] < means[1] < means[2]

    def test_drift_raises_inter_variation(self):
        means = []
        for drift in (0.0, 0.2, 1.0):
            acc = 0.0
            for seed in range(50):
                spec = SyntheticSpec(
                    n_images=4, tokens_per_image=16, dim=16, seed=seed,
                    clusters=4, noise=0.05, drift=drift,
                )
                bundle = generate_synthetic(spec)
                acc += inter_variation_mean(inter_variation_steps(bundle))
            means.append(acc / 50)
        assert means[0] < means[1] < means[2]

    def test_same_seed_shares_noise_draws(self):
        """noise=0 and noise>0 runs differ only by the perturbation term."""
        base = dict(n_images=1, tokens_per_image=4, dim=8, seed=9, clusters=2)
        quiet = generate_synthetic(SyntheticSpec(noise=0.0, **base))
        loud = generate_synthetic(SyntheticSpec(noise=1e-6, **base))
        np.testing.assert_allclose(
            quiet.images[0].data, loud.images[0].data, atol=1e-5
        )


class TestResultDocuments:
    def test_round_trip_through_json(self, tmp_path):
        rng = np.random.default_rng(10)
        bundle = random_bundle(rng, [20, 15], dim=8)
        cfg = PruneConfig(final_tokens=10, retention_ratio=None)
        report, sel = prune(bundle, cfg)
        budgets = resolve_config(cfg, bundle, require_text=True)
        path = tmp_path / "result.json"
        write_result(report, sel, path, cfg=cfg, budgets=budgets)
        doc = json.loads(path.read_text())

        assert doc["config"]["lambda"] == cfg.lam
        assert doc["config"]["resolved"]["m_final"] == 10
        assert list(doc["config"]) == [
            "m_min", "m_max", "lambda", "m2", "final_tokens", "retention_ratio",
            "last_image_rule", "inter_variant", "align_on_normalized",
            "greedy_objective", "resolved",
        ]
        rep = doc["report"]
        np.testing.assert_allclose(
            rep["d_intra_per_image"], report.d_intra_per_image, rtol=1e-9
        )
        assert rep["d_inter"] == pytest.approx(report.d_inter, rel=1e-9)
        assert rep["s"] == pytest.approx(report.s, rel=1e-9)
        assert rep["m1"] == report.m1
        assert tuple(rep["per_image_budgets"]) == report.per_image_budgets
        selection = doc["selection"]
        assert tuple(selection["kept_global"]) == sel.kept_global
        assert tuple(selection["stage_sizes"]) == sel.stage_sizes
        assert [tuple(x) for x in selection["kept_per_image"]] == [
            tuple(x) for x in sel.kept_per_image
        ]
        got_scores = [(g, v, a) for g, v, a in selection["scores"]]
        for got, want in zip(got_scores, sel.scores):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], rel=1e-9)
            assert got[2] == pytest.approx(want[2], rel=1e-9)

    def test_single_image_document(self):
        rng = np.random.default_rng(11)
        bundle = random_bundle(rng, [10], dim=4)
        report = analyze(bundle, PruneConfig())
        doc = result_document(report, prune(bundle, PruneConfig())[1])
        assert doc["config"] is None
        assert doc["report"]["d_k"] == []
        assert doc["report"]["d_inter"] is None
        assert doc["report"]["s"] == 1.0

    def test_saturated_s_survives_json(self, tmp_path):
        rng = np.random.default_rng(12)
        img = build_token_matrix(6, 4, rng.standard_normal(24))
        bundle = make_bundle([img, img], build_token_matrix(2, 4, rng.standard_normal(8)))
        cfg = PruneConfig()
        report, sel = prune(bundle, cfg)
        assert math.isinf(report.s)
        path = tmp_path / "inf.json"
        write_result(report, sel, path)
        assert math.isinf(json.loads(path.read_text())["report"]["s"])

    def test_keep_all_document_enumerates_indices(self, tmp_path):
        rng = np.random.default_rng(13)
        bundle = random_bundle(rng, [4, 4], dim=4)
        cfg = PruneConfig(final_tokens=8, retention_ratio=None)
        report, sel = prune(bundle, cfg)
        doc = result_document(report, sel)
        assert doc["selection"]["kept_global"] == list(range(8))
        assert doc["selection"]["stage_sizes"] == [8, 8, 8, 8]

    def test_fields_of_the_wrong_kind(self, tmp_path):
        """A report or selection whose fields hold something else than
        numbers, counts and index lists raises SelectionMismatch naming
        the field, before any file is opened."""
        rng = np.random.default_rng(15)
        bundle = random_bundle(rng, [8, 6], dim=4)
        report, sel = prune(bundle, PruneConfig(final_tokens=4, retention_ratio=None))
        replace = dataclasses.replace
        cases = (
            (report, replace(sel, kept_per_image=5), "selection kept_per_image"),
            (report, replace(sel, kept_per_image=((0.5,), ())), r"kept_per_image\[0\]"),
            (report, replace(sel, scores=((1, 2),)), r"selection scores\[0\]"),
            (report, replace(sel, scores=((1, 0.5, "a"),)), r"selection scores\[0\]"),
            (report, replace(sel, kept_global=(object(),)), r"kept_global\[0\]"),
            (report, replace(sel, stage_sizes=(14, True, 4, 4)), "stage_sizes"),
            (replace(report, d_inter=object()), sel, "report d_inter"),
            (replace(report, s="1.0"), sel, "report s"),
            (replace(report, m1=4.0), sel, "report m1"),
            (replace(report, per_image_budgets=(-1, 2)), sel, "per_image_budgets"),
            (replace(report, d_k_list=None), sel, "report d_k_list"),
        )
        path = tmp_path / "out.json"
        for rep, s, field in cases:
            with pytest.raises(SelectionMismatch, match=field):
                write_result(rep, s, path)
        assert list(tmp_path.iterdir()) == []

    def test_selections_that_break_its_rules(self, tmp_path):
        """write_result holds a Selection to the rules apply_selection
        does: stage sizes that increase, a kept index listed twice, or
        stage sizes that end above the kept count raise SelectionMismatch,
        before any file is opened."""
        rng = np.random.default_rng(15)
        bundle = random_bundle(rng, [8, 6], dim=4)
        report, sel = prune(bundle, PruneConfig(final_tokens=3, retention_ratio=None))
        assert sel.kept_global[0] < 8  # image 0 keeps an index
        first = sel.kept_global[0]
        cases = (
            ({"stage_sizes": (14, 1, 999, 3)}, "increase"),
            (
                {
                    "kept_per_image": ((first, first, first), ()),
                    "kept_global": (first,) * 3,
                },
                "repeats a kept index",
            ),
            ({"stage_sizes": (14, 8, 8, 5)}, "end at 5, but it keeps 3"),
        )
        path = tmp_path / "out.json"
        for fields, why in cases:
            with pytest.raises(SelectionMismatch, match=why):
                write_result(report, dataclasses.replace(sel, **fields), path)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_numbers_are_written_as_json_numbers(self, tmp_path):
        rng = np.random.default_rng(16)
        bundle = random_bundle(rng, [8, 6], dim=4)
        report, sel = prune(bundle, PruneConfig(final_tokens=4, retention_ratio=None))
        wide = dataclasses.replace(
            sel,
            kept_global=tuple(np.int64(g) for g in sel.kept_global),
            scores=tuple((np.int32(g), np.float64(v), a) for g, v, a in sel.scores),
        )
        path = tmp_path / "out.json"
        write_result(dataclasses.replace(report, m1=np.int64(report.m1)), wide, path)
        assert json.loads(path.read_text()) == result_document(report, sel)

    def test_write_failure(self, tmp_path):
        rng = np.random.default_rng(14)
        bundle = random_bundle(rng, [4], dim=4)
        report, sel = prune(bundle, PruneConfig())
        with pytest.raises(IoFailure):
            write_result(report, sel, tmp_path / "nope" / "x.json")
