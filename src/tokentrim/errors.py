"""Exception taxonomy shared by all modules, plus the stable CLI exit codes."""

from __future__ import annotations

import contextlib


class TokenTrimError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(TokenTrimError):
    """Flat value buffer, row count and dimension do not agree."""


class ZeroNormRow(TokenTrimError):
    """A token row has (near-)zero norm, so cosine distance is undefined."""

    def __init__(self, index: int):
        super().__init__(f"row {index} has norm below 1e-12")
        self.index = index


class NonFiniteRow(TokenTrimError):
    """A token row holds NaN or an infinity."""

    def __init__(self, index: int):
        super().__init__(f"row {index} has a non-finite value")
        self.index = index


class DimMismatch(TokenTrimError):
    """Two matrices that must share an embedding dimension do not."""


class BadConfig(TokenTrimError):
    """Configuration field values violate their invariants."""


class EmptyText(TokenTrimError):
    """The text matrix has no rows but the operation needs at least one."""


class ZeroMeanImage(TokenTrimError):
    """An image's mean embedding has (near-)zero norm.

    ``image`` is the 1-based position of the degenerate image.
    """

    def __init__(self, image: int):
        super().__init__(f"image {image} has a zero mean embedding")
        self.image = image


class PositionMismatch(TokenTrimError):
    """Consecutive images have different token counts, so position-wise
    comparison is undefined.  ``step`` is the 1-based position of the second
    image of the offending pair (steps run 2..n).
    """

    def __init__(self, step: int):
        super().__init__(
            f"images {step - 1} and {step} have different token counts"
        )
        self.step = step


class EmptySteps(TokenTrimError):
    """No consecutive-image variation steps to average (single image)."""


class TooFewTokens(TokenTrimError):
    """Per-token diversity needs at least two tokens."""


class BadBudget(TokenTrimError):
    """A selection budget is out of range for the operation."""


class BadSubset(TokenTrimError):
    """A token subset is too small, out of range, or contains duplicates."""


class InfeasibleBudget(TokenTrimError):
    """Per-image budgets cannot satisfy both the total and the caps."""


class SelectionMismatch(TokenTrimError):
    """A selection or report is malformed, or a selection does not fit the
    bundle it is being applied to."""


class BadMagic(TokenTrimError):
    """Bundle file does not start with the TTB1 magic."""


class BadVersion(TokenTrimError):
    """Bundle file has an unsupported format version."""


class TruncatedFile(TokenTrimError):
    """Bundle file ends before the header-declared payload."""


class FileChanged(TokenTrimError):
    """A bundle file read in two passes changed between them: its size,
    modification time or inode, or a row's norm, is not what the first
    pass found."""


class BadSpec(TokenTrimError):
    """Synthetic generator parameters violate their invariants."""


class IoFailure(TokenTrimError):
    """Underlying I/O error while writing a result document."""


class OutOfMemory(TokenTrimError):
    """The machine could not allocate the memory an input or spec asks for."""


@contextlib.contextmanager
def _allocating(what: str):
    """OutOfMemory, naming ``what``, for an allocation the block fails."""
    try:
        yield
    except MemoryError as exc:
        raise OutOfMemory(f"cannot allocate {what}: {exc}") from exc


class BenchGateFailure(TokenTrimError):
    """Fast and naive benchmark paths disagreed beyond tolerance."""


# One fixed, documented exit code per error class; argparse keeps code 2
# for command-line usage errors.
EXIT_CODES: dict[type, int] = {
    ZeroNormRow: 10,
    ShapeMismatch: 11,
    EmptyText: 12,
    ZeroMeanImage: 14,
    PositionMismatch: 15,
    EmptySteps: 16,
    DimMismatch: 17,
    TooFewTokens: 18,
    BadBudget: 19,
    BadSubset: 20,
    InfeasibleBudget: 21,
    SelectionMismatch: 22,
    BadMagic: 23,
    BadVersion: 24,
    TruncatedFile: 25,
    BadSpec: 26,
    IoFailure: 27,
    BadConfig: 28,
    BenchGateFailure: 29,
    NonFiniteRow: 30,
    OutOfMemory: 31,
    FileChanged: 32,
}


def exit_code_for(err: BaseException) -> int:
    """Stable nonzero exit code for a library error (1 for anything else)."""
    return EXIT_CODES.get(type(err), 1)
