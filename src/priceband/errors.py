"""Exception hierarchy shared across the package.

Every error raised by library code derives from :class:`PricebandError` so the
CLI can catch one type, print the message, and exit nonzero. Below it sit
four groups, one per thing a caller can do about the failure:

- :class:`InputError`: the caller passed something unusable. A CSV row,
  channel, config file, artifact, dimension, shape, noise std, threshold,
  scenario count or date range is missing, malformed or out of range.
  Fix the input and retry. :class:`MalformedRow` is the one subclass; it
  carries the offending CSV line number.
- :class:`NumericalError`: a computation left the finite range. A loss,
  gradient, parameter update or network input is NaN or infinite. Lower
  the learning rate or check the data.
- :class:`StateError`: an object is used out of order. A training phase
  runs before the one it builds on, an untrained model generates, or a
  backward pass reads a cache whose parameters changed since its forward.
- :class:`CheckpointError`: a saved model cannot be read. The file is
  unreadable, structurally broken, or from another format version (the
  message says to re-train).
"""

from __future__ import annotations


class PricebandError(Exception):
    """Base class for all package errors."""


class InputError(PricebandError):
    """Missing, malformed or out-of-range input."""


class MalformedRow(InputError):
    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"malformed row at line {line_no}: {detail}")


class NumericalError(PricebandError):
    """A non-finite loss, gradient, parameter or network input."""


class StateError(PricebandError):
    """An operation attempted before the state it needs exists."""


class CheckpointError(PricebandError):
    """A model checkpoint that cannot be read back."""
