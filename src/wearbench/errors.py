"""Typed error hierarchy shared across the toolkit.

Every failure mode surfaces as a subclass of :class:`WearbenchError` so
callers can distinguish expected domain failures from programming errors.
"""


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
