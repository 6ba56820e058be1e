"""The command line's two-pass read: a TTB1 file is widened once for its
norms and sums, and each image is read back only when selection gets to
it.  Its results must equal those of the whole bundle in memory."""

import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokentrim
from test_pipeline import (
    FakeBlas,
    count_thread_starts,
    open_images,
    pool_bundle,
    small_tiles,
    split_config,
)
from tokentrim import (
    PruneConfig,
    TokenBundle,
    analyze,
    apply_selection,
    io_formats,
    pipeline,
    prune,
    read_bundle,
    selection,
    types,
    write_bundle,
)
from tokentrim.cli import main
from tokentrim.errors import FileChanged, NonFiniteRow, TruncatedFile
from tokentrim.io_formats import report_document, result_document
from tokentrim.types import CONFIG_FIELDS, resolve_config


def write_rows(path, counts, n_text, dim, seed=0):
    """A TTB1 file of random rows, written image by image so that no more
    than one image is ever in memory."""
    rng = np.random.default_rng(seed)
    with open(path, "wb") as fh:
        head = [1, len(counts), n_text, dim, *counts]
        fh.write(b"TTB1" + np.array(head, "<u4").tobytes())
        for rows in (*counts, n_text):
            fh.write(rng.standard_normal((rows, dim), dtype=np.float32).tobytes())
    return path


def config_file(path, cfg: PruneConfig):
    doc = {key: getattr(cfg, name) for key, name in CONFIG_FIELDS.items()}
    path.write_text(json.dumps(doc))
    return path


def cli(*argv):
    """Run the command in-process; its exit code must be 0."""
    assert main([str(a) for a in argv]) == 0


@st.composite
def files_and_configs(draw):
    """Bundles of 1-4 images, some tiled (more rows than dims and than
    one 256-row tile block), at small dims, and configs of either
    variant, both objectives and both alignments."""
    positionwise = draw(st.booleans())
    n_images = draw(st.integers(1, 4))
    size = st.sampled_from([1, 2, 7, 40, 257, 300])
    if positionwise:
        counts = [draw(size)] * n_images
    else:
        counts = draw(st.lists(size, min_size=n_images, max_size=n_images))
    dim = draw(st.integers(2, 9))
    n_text = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    m_min = draw(st.integers(1, 120))
    budget = draw(
        st.one_of(
            st.builds(dict, final_tokens=st.integers(1, 60), retention_ratio=st.none()),
            st.builds(dict, retention_ratio=st.floats(0.01, 0.99)),
        )
    )
    cfg = PruneConfig(
        m_min=m_min,
        m_max=m_min + draw(st.integers(0, 120)),
        m2=draw(st.integers(1, 120)),
        inter_variant="position_wise" if positionwise else "global_mean",
        align_on_normalized=draw(st.booleans()),
        greedy_objective=draw(st.sampled_from(["sum_distance", "min_distance"])),
        **budget,
    )
    return counts, n_text, dim, seed, cfg


@settings(derandomize=True, max_examples=60, deadline=None)
@given(files_and_configs())
@example(([300], 3, 8, 0, PruneConfig()))  # one tiled image
@example(([257, 257, 257], 2, 4, 1, PruneConfig(inter_variant="position_wise")))
def test_file_path_equals_the_bundle_in_memory(case):
    """``prune`` and ``analyze`` on the command line write, byte for byte,
    the documents and the pruned bundle that the in-memory calls give for
    ``read_bundle`` of the same file."""
    counts, n_text, dim, seed, cfg = case
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        src = write_rows(d / "in.ttb", counts, n_text, dim, seed)
        conf = config_file(d / "cfg.json", cfg)
        cli("prune", "--input", src, "--output", d / "r.json", "--config", conf,
            "--emit-pruned", d / "e.ttb")
        cli("analyze", "--input", src, "--output", d / "a.json", "--config", conf)

        bundle = read_bundle(src)
        report, sel = prune(bundle, cfg)
        budgets = resolve_config(cfg, bundle, require_text=True)
        want = result_document(report, sel, cfg, budgets)
        assert (d / "r.json").read_text() == json.dumps(want, indent=2) + "\n"
        write_bundle(apply_selection(bundle, sel), d / "want.ttb")
        assert (d / "e.ttb").read_bytes() == (d / "want.ttb").read_bytes()
        want = report_document(analyze(bundle, cfg), cfg, resolve_config(cfg, bundle))
        assert (d / "a.json").read_text() == json.dumps(want, indent=2) + "\n"


def test_pooled_reads_equal_one_worker(tmp_path, monkeypatch):
    """Eight images pruned from the file on two workers, each job reading
    its own image: the selection of the bundle in memory on one worker."""
    bundle = pool_bundle()
    write_bundle(bundle, tmp_path / "pool.ttb")
    cfg = PruneConfig(final_tokens=20, retention_ratio=None)
    one = FakeBlas(1)
    monkeypatch.setattr(pipeline, "_BLAS", (one.get, one.set))
    want = prune(bundle, cfg)
    two = FakeBlas(2)
    monkeypatch.setattr(pipeline, "_BLAS", (two.get, two.set))
    started = count_thread_starts(monkeypatch)
    with io_formats._streamed(tmp_path / "pool.ttb") as streamed:
        got = prune(streamed, cfg)
    assert len(started) == 2  # the first pass's reader, then one worker
    assert two.calls == [1, 2]
    assert got == want
    assert repr(got[1].scores) == repr(want[1].scores)


def test_the_first_pass_keeps_norms_and_sums(tmp_path, monkeypatch):
    """Three first passes at once under a 1 µs switch interval, each
    through a ring smaller than one image, in pieces that end inside a
    float: each keeps read_bundle's norms and each view's sums, bit for
    bit, reads rows back, and leaves no thread behind."""
    src = write_rows(tmp_path / "b.ttb", [500, 400, 176], 24, 64)
    monkeypatch.setattr(io_formats, "_RING", 4 * 64 * 150)
    monkeypatch.setattr(io_formats, "_PIECE", 4096 + 3)
    want = read_bundle(src)
    picked = [3, 4, 5, 399, 0]
    results = []

    def first_pass():
        for _ in range(2):
            with io_formats._streamed(src) as got:
                views = zip((*got.images, got.text), (*want.images, want.text))
                rows = got.images[1].gather(picked).data
                results.append(
                    isinstance(got, TokenBundle)
                    and got.rows.norms_sq.tobytes() == want.rows.norms_sq.tobytes()
                    and all(v.row_sums().tobytes() == w.row_sums().tobytes() for v, w in views)
                    and np.array_equal(rows, want.images[1].data[picked])
                )

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        hosts = [threading.Thread(target=first_pass) for _ in range(3)]
        for t in hosts:
            t.start()
        for t in hosts:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in hosts)
    assert results == [True] * 6
    assert threading.active_count() == before


def test_stress_pooled_reads_on_more_workers_than_cores(tmp_path, monkeypatch):
    """Three host threads prune one open file on four workers each,
    switching threads every microsecond, with each image split into 12
    tiles so that several workers start on one image at once: each job
    reads its image once and every result equals the serial one."""
    small_tiles(monkeypatch)
    bundle, cfg = pool_bundle(n_images=16), split_config(16)
    write_bundle(bundle, tmp_path / "pool.ttb")
    want = prune(bundle, cfg)
    fake = FakeBlas(4)
    monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
    reads = []
    real = io_formats._FileRows.gather

    def counting(rows, indices):
        reads.append(rows.first)
        return real(rows, indices)

    monkeypatch.setattr(io_formats._FileRows, "gather", counting)
    results = []
    with io_formats._streamed(tmp_path / "pool.ttb") as streamed:
        hosts = [
            threading.Thread(target=lambda: results.append(prune(streamed, cfg)))
            for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in hosts:
                t.start()
            for t in hosts:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in hosts)
    assert results == [want] * 3
    assert sorted(reads) == sorted(bundle.offsets * 3)


def test_a_bad_row_stops_the_first_pass(tmp_path, monkeypatch):
    """A NaN in row 0 of a file the ring holds a fiftieth of: NonFiniteRow
    once the first rows are widened, with the reader joined."""
    src = write_rows(tmp_path / "b.ttb", [5000], 0, 256)
    with open(src, "r+b") as fh:
        fh.seek(20 + 4)
        fh.write(np.float32(np.nan).tobytes())
    monkeypatch.setattr(io_formats, "_RING", 4 * 256 * 100)
    reads = []
    real = io_formats._PayloadReader.__getitem__

    def counting(reader, rows):
        reads.append(rows.stop)
        return real(reader, rows)

    monkeypatch.setattr(io_formats._PayloadReader, "__getitem__", counting)
    threads = threading.active_count()
    with pytest.raises(NonFiniteRow) as err, io_formats._streamed(src):
        pass
    assert err.value.index == 0
    assert max(reads) <= types._CHECK_VALUES // 256 + 32
    assert threading.active_count() == threads


def test_pruning_128_frames_holds_a_few_frames_and_the_survivors(tmp_path):
    """A 128-frame file (64 MiB) pruned and emitted by the command line:
    the tracemalloc peak stays below the first pass's ring plus eight
    frames and the survivors, an eighth of the bundle."""
    frame_rows, dim = 256, 512
    src = write_rows(tmp_path / "v.ttb", [frame_rows] * 128, 32, dim)
    frame = 4 * frame_rows * dim
    survivors = 4 * PruneConfig().m_max * dim
    tracemalloc.start()
    try:
        cli("prune", "--input", src, "--output", tmp_path / "r.json",
            "--final", 64, "--emit-pruned", tmp_path / "e.ttb")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < io_formats._RING + 8 * frame + 2 * survivors
    assert peak < os.path.getsize(src) / 8


def test_pooled_prune_holds_one_tiled_image_per_worker(tmp_path, monkeypatch):
    """Six 2048 x 512 images (4 MiB, 11 seed-filter tiles each) pruned by
    the command line on two workers, with image 0's finish held until the
    others have finished: the tracemalloc peak stays below the first
    pass's ring, two images, the survivors and two tiles' buffers."""
    rows, dim, n = 2048, 512, 6
    src = write_rows(tmp_path / "t.ttb", [rows] * n, 16, dim)
    monkeypatch.setattr(io_formats, "_RING", 1 << 20)
    fake = FakeBlas(2)
    monkeypatch.setattr(pipeline, "_BLAS", (fake.get, fake.set))
    images = open_images(
        monkeypatch, n, lambda job: getattr(job.tokens, "first", None) == 0
    )
    tracemalloc.start()
    try:
        cli("prune", "--input", src, "--output", tmp_path / "r.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    image = 4 * rows * dim
    tile = 4 * selection._TILE_ROWS * selection._TILE_COLS
    survivors = 4 * PruneConfig().m_max * dim
    assert peak < io_formats._RING + 2 * image + survivors + 2 * tile
    assert images == [2]
    assert fake.calls == [1, 2]


# Caps the address space at what the process maps once tokentrim is
# loaded plus 48 MiB, then runs the command line.
CAPPED_CLI = """
import resource, sys
from tokentrim.cli import main
with open("/proc/self/status") as fh:
    size = next(int(l.split()[1]) for l in fh if l.startswith("VmSize:")) << 10
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + (48 << 20), hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_prune_a_bundle_larger_than_the_address_space_left(tmp_path):
    """64 frames of 512 x 512 (64 MiB) under an address-space cap that
    leaves 48 MiB: the payload could not be allocated, yet prune and its
    pruned bundle succeed, on one BLAS thread as the other capped runs."""
    src = write_rows(tmp_path / "big.ttb", [512] * 64, 8, 512)
    assert os.path.getsize(src) > 64 << 20
    pytest.importorskip("resource")
    out, emit = tmp_path / "r.json", tmp_path / "e.ttb"
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(tokentrim.__file__).resolve().parents[1]),
        "OPENBLAS_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "prune", "--input", str(src),
         "--output", str(out), "--final", "64", "--emit-pruned", str(emit)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    kept = json.loads(out.read_text())["selection"]["kept_global"]
    rows = np.fromfile(src, "<f4", offset=20 + 4 * 64).reshape(-1, 512)
    small = read_bundle(emit)
    np.testing.assert_array_equal(small.rows.data, rows[[*kept, *range(64 * 512, len(rows))]])


class TestFileChangedBetweenPasses:
    """A file changed after the first pass fails the command with its
    stage and exit code, never with a traceback or another selection."""

    @pytest.fixture
    def src(self, tmp_path):
        return write_rows(tmp_path / "in.ttb", [40, 40, 40], 6, 16)

    def prune_after(self, monkeypatch, capsys, src, change, *argv):
        """Run ``prune`` on ``src``, calling ``change(src)`` once the first
        pass is done; returns the exit code and stderr."""
        real = pipeline.prune

        def changed_first(bundle, cfg, threads=1):
            change(src)
            return real(bundle, cfg, threads)

        monkeypatch.setattr(pipeline, "prune", changed_first)
        code = main(["prune", "--input", str(src), "--output", str(src) + ".json", *argv])
        return code, capsys.readouterr().err

    @staticmethod
    def keep_times(path, edit):
        """Apply ``edit`` to the file, then restore its access and
        modification times."""
        info = os.stat(path)
        edit(path)
        os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))

    def test_truncated_inside_the_first_image(self, monkeypatch, capsys, src):
        """The first read comes up short."""
        code, err = self.prune_after(monkeypatch, capsys, src, lambda p: os.truncate(p, 100))
        assert code == 25
        assert err.startswith("tokentrim prune: stage prune: TruncatedFile: file shrank")

    def test_truncated_after_the_first_image(self, monkeypatch, capsys, src):
        """The first read is whole, but the file's size has changed."""
        code, err = self.prune_after(
            monkeypatch, capsys, src, lambda p: os.truncate(p, os.path.getsize(p) // 2)
        )
        assert code == 32
        assert err.startswith("tokentrim prune: stage prune: FileChanged:")

    def test_appended_to(self, monkeypatch, capsys, src):
        def append(p):
            with open(p, "ab") as fh:
                fh.write(bytes(8))

        code, err = self.prune_after(
            monkeypatch, capsys, src, lambda p: self.keep_times(p, append)
        )
        assert code == 32
        assert err.startswith("tokentrim prune: stage prune: FileChanged:")

    def test_touched(self, monkeypatch, capsys, src):
        def touch(p):
            info = os.stat(p)
            os.utime(p, ns=(info.st_atime_ns, info.st_mtime_ns + 10**9))

        code, err = self.prune_after(monkeypatch, capsys, src, touch)
        assert code == 32
        assert err.startswith("tokentrim prune: stage prune: FileChanged:")

    def test_replaced(self, monkeypatch, capsys, src):
        """The same bytes and times in a new file moved over the path."""

        def replace(p):
            copy = Path(str(p) + ".new")
            copy.write_bytes(Path(p).read_bytes())
            info = os.stat(p)
            os.utime(copy, ns=(info.st_atime_ns, info.st_mtime_ns))
            os.replace(copy, p)

        code, err = self.prune_after(monkeypatch, capsys, src, replace)
        assert code == 32
        assert err.startswith("tokentrim prune: stage prune: FileChanged:")

    def test_row_rescaled_in_place(self, monkeypatch, capsys, src):
        """Row 45 (image 1) doubled, with the times restored: its norm
        no longer matches the first pass's."""

        def rescale(p):
            with open(p, "r+b") as fh:
                start = 20 + 4 * 3 + 4 * 16 * 45
                fh.seek(start)
                row = np.frombuffer(fh.read(4 * 16), "<f4") * 2
                fh.seek(start)
                fh.write(row.astype("<f4").tobytes())

        code, err = self.prune_after(
            monkeypatch, capsys, src, lambda p: self.keep_times(p, rescale)
        )
        assert code == 32
        assert err == (
            "tokentrim prune: stage prune: FileChanged: "
            "row 45 no longer has the norm the first pass read\n"
        )

    def test_changed_before_the_emit(self, monkeypatch, capsys, tmp_path, src):
        real = pipeline._applied

        def changed_first(bundle, *fields):
            os.truncate(src, 20)
            return real(bundle, *fields)

        monkeypatch.setattr(pipeline, "_applied", changed_first)
        code = main(["prune", "--input", str(src), "--output", str(tmp_path / "r.json"),
                     "--emit-pruned", str(tmp_path / "e.ttb")])
        assert code == 25
        assert capsys.readouterr().err.startswith(
            "tokentrim prune: stage emit-pruned: TruncatedFile:"
        )
        assert not (tmp_path / "e.ttb").exists()

    def test_library_calls_raise_the_same(self, src):
        """prune on the streamed bundle itself: FileChanged for a row whose
        norm moved, TruncatedFile for a file cut short."""
        cfg = PruneConfig()
        with io_formats._streamed(src) as bundle:
            self.keep_times(src, lambda p: Path(p).write_bytes(
                Path(p).read_bytes()[:-4] + np.float32(1e6).tobytes()
            ))
            with pytest.raises(FileChanged, match="row 125 "):
                apply_selection(bundle, prune(read_bundle(src), cfg)[1])
            os.truncate(src, 100)
            with pytest.raises(TruncatedFile):
                prune(bundle, cfg)
