"""Typed error hierarchy and the parameter ranges shared across the toolkit.

Every failure mode surfaces as a subclass of :class:`WearbenchError` so
callers can distinguish expected domain failures from programming errors.
Each function checks the parameters it reads through :func:`check_fields`.
"""
import json
import sys

import numpy as np


class WearbenchError(Exception):
    """Base class for all toolkit errors."""


# --- session parsing / validation -------------------------------------------

class SessionFormatError(WearbenchError):
    """An input file (session, manifest, table, report) violates its format."""


class MalformedHeader(SessionFormatError):
    """The two metadata lines (start time, sample rate) cannot be parsed."""


class WidthMismatch(SessionFormatError):
    """A sample row has the wrong number of columns for its channel kind."""


class NonFiniteSample(SessionFormatError):
    """A sample value is NaN, infinite, or not a number at all."""


class EmptyBody(SessionFormatError):
    """A channel file has headers but no sample rows."""


class MissingChannelFile(SessionFormatError):
    """A session directory lacks one of the four required channel files."""


class ManifestError(SessionFormatError):
    """The label manifest is malformed or carries an unknown label."""


# --- numeric kernels ---------------------------------------------------------

class SignalTooShort(WearbenchError):
    """The input signal is shorter than the operation requires."""


class InvalidOrder(WearbenchError):
    """Filter order is not a positive integer."""


class InvalidCutoff(WearbenchError):
    """Cutoff frequencies are outside (0, Nyquist) or incorrectly ordered."""


class EmptyBand(WearbenchError):
    """A band integral was requested with lo >= hi."""


class ConstantInput(WearbenchError):
    """Correlation is undefined because an input has zero variance."""


class LengthMismatch(WearbenchError):
    """Paired sequences do not have equal lengths."""


# --- pulse / NN series -------------------------------------------------------

class NoPeaksFound(WearbenchError):
    """Pulse-peak detection found no peaks (flat or too-short signal)."""


class TooFewIntervals(WearbenchError):
    """Fewer than two NN intervals survive artifact rejection."""


class SpanTooShort(WearbenchError):
    """The NN series does not span enough time for spectral analysis."""


# --- synthetic data ----------------------------------------------------------

class InvalidSpec(WearbenchError):
    """A synthetic session specification has out-of-range parameters."""


# --- benchmarking ------------------------------------------------------------

class ClassUnderpopulated(WearbenchError):
    """A class has fewer than two subjects; LOOCV cannot proceed."""


class DegenerateLabels(WearbenchError):
    """Training labels contain a single class."""


class EmptyConfusion(WearbenchError):
    """Metrics were requested on an all-zero confusion matrix."""


# --- cli ----------------------------------------------------------------------

class ConfigError(WearbenchError):
    """Run configuration is invalid or inconsistent."""


# --- parameter ranges ---------------------------------------------------------
# A range is (check, what the value must be). It is a value's only check, so
# it also checks the type, and it fails NaN and +-inf.

def finite_number(v) -> bool:
    """A number that fits a finite float; NaN, +-inf and bools fail."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def one_of(*choices):
    return (lambda v: v in choices,
            " or ".join(json.dumps(c) for c in choices))


COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
SEED = (lambda v: type(v) is int and v >= 0, "an integer >= 0")
RATE = (lambda v: finite_number(v) and v > 0, "a positive number")
NON_NEGATIVE = (lambda v: finite_number(v) and v >= 0, "a finite number >= 0")
FINITE = (finite_number, "a finite number")
FRACTION = (lambda v: finite_number(v) and 0 <= v < 1, "a number in [0, 1)")


def path_of(range_):
    """A path range from an element range: one value in ``range_``, or a
    non-empty list or tuple of them (:func:`check_fields` reads a 1-d array
    as a list); the element's text."""
    check, what = range_
    return (lambda v: len(v) > 0 and all(map(check, v))
            if isinstance(v, (list, tuple)) else check(v), what)


def _python(v):
    """``v`` with each NumPy scalar, and each array of at least one
    dimension, as the Python values it holds, inside lists and tuples too."""
    if isinstance(v, np.generic) or (isinstance(v, np.ndarray) and v.ndim):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return type(v)(map(_python, v))
    return v


def check_fields(values: dict, ranges: dict, error=ValueError,
                 context: str | None = None) -> dict:
    """``values``, NumPy scalars and arrays as the Python values they hold;
    raises ``error`` for a key ``ranges`` lacks, or for the first value out
    of its range as ``[<context>.]<key> must be <what>, got <value!r>``."""
    unknown = set(values) - set(ranges)
    if unknown:
        where = f" {context}" if context else ""
        raise error(f"unknown{where} keys: {sorted(unknown)}")
    values = {key: _python(v) for key, v in values.items()}
    for key, value in values.items():
        check, what = ranges[key]
        if not check(value):
            name = f"{context}.{key}" if context else key
            raise error(f"{name} must be {what}, got {value!r}")
    return values


def check_value(name: str, value, range_, error=ValueError):
    """:func:`check_fields` for one value; returns it."""
    return check_fields({name: value}, {name: range_}, error)[name]
