"""Parsing, serialization, and validation of wrist-wearable sessions.

On-disk layout is one directory per subject holding four channel files::

    <root>/<subject_id>/{BVP.csv, EDA.csv, ACC.csv, TEMP.csv}

Each channel file is UTF-8 text (LF or CRLF):

* line 1 -- integer UTC start timestamp (ACC may repeat it per column),
* line 2 -- sample rate in Hz (ACC may repeat it per column),
* lines 3+ -- one comma-separated sample vector per line
  (width 3 for ACC, width 1 otherwise).

Blank lines are skipped. A body of plain decimal rows is checked once and
parsed in one NumPy call, as integers over 10**6 when every value has six
decimals, else as floats; any other body, and any body NumPy rejects, goes
through a row loop, which alone raises the body errors and numbers its rows.

Samples are written with ``%.6f``. NumPy writes a body in chunks from the
rounded integer ``|x| * 1e6`` where that rounding is exact for every value;
any other channel goes through one ``%`` format over all its values, which
writes the same bytes.

Labels live in a separate manifest CSV with header ``subject_id,label`` and
case-insensitive labels ``unipolar`` / ``bipolar``. The manifest is a subject
table (:func:`read_subject_table`) with no columns between the two.
"""
from __future__ import annotations

import enum
import math
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    NON_NEGATIVE,
    RATE,
    EmptyBody,
    MalformedHeader,
    ManifestError,
    MissingChannelFile,
    NonFiniteSample,
    SessionFormatError,
    WidthMismatch,
    check_fields,
    check_value,
)


class ChannelKind(enum.Enum):
    BVP = "BVP"
    EDA = "EDA"
    ACC = "ACC"
    TEMP = "TEMP"

    @property
    def width(self) -> int:
        return 3 if self is ChannelKind.ACC else 1


class Label(enum.Enum):
    UNIPOLAR = "unipolar"
    BIPOLAR = "bipolar"

    @classmethod
    def from_string(cls, text: str) -> "Label":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ManifestError(f"unknown label {text!r}") from None

    def to_int(self) -> int:
        return 0 if self is Label.UNIPOLAR else 1


LABEL = (lambda v: isinstance(v, Label), "a Label")
START_TIME = (lambda v: type(v) is int, "an integer")


ALL_KINDS = (ChannelKind.BVP, ChannelKind.EDA, ChannelKind.ACC, ChannelKind.TEMP)


@dataclass(frozen=True)
class SignalChannel:
    """One uniformly sampled sensor stream.

    ``samples`` is a float array of shape (n,) for single-column kinds and
    (n, 3) for ACC.
    """

    kind: ChannelKind
    start_time: int
    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start_time", check_value(
            "start_time", self.start_time, START_TIME))
        object.__setattr__(self, "sample_rate", check_value(
            "sample_rate", self.sample_rate, RATE))
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.size == 0:
            raise ValueError("samples must be non-empty")
        width = samples.shape[1] if samples.ndim == 2 else 1
        if width != self.kind.width:
            raise ValueError(
                f"{self.kind.value} expects width {self.kind.width}, got {width}")

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    @property
    def duration_seconds(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass(frozen=True)
class Session:
    """The four channels of one subject plus identity and label."""

    subject_id: str
    channels: dict[ChannelKind, SignalChannel]
    label: Label

    def __post_init__(self):
        missing = [k.value for k in ALL_KINDS if k not in self.channels]
        extra = [k for k in self.channels if k not in ALL_KINDS]
        if missing or extra:
            raise ValueError(f"session must have exactly the four kinds; "
                             f"missing={missing}, extra={extra}")

    def channel(self, kind: ChannelKind) -> SignalChannel:
        return self.channels[kind]


class ValidationStatus(enum.Enum):
    OK = "ok"
    EXCLUDED = "excluded"


@dataclass(frozen=True)
class ValidationPolicy:
    min_duration_seconds: float = 60.0
    max_duration_skew_seconds: float = 5.0


# ValidationPolicy field -> range, checked by validate_session
VALIDATION_RANGES = {"min_duration_seconds": RATE,
                     "max_duration_skew_seconds": NON_NEGATIVE}


@dataclass(frozen=True)
class ValidationReport:
    subject_id: str
    reasons: tuple[str, ...] = ()

    @property
    def status(self) -> ValidationStatus:
        """EXCLUDED exactly when there are reasons."""
        return (ValidationStatus.EXCLUDED if self.reasons
                else ValidationStatus.OK)


def read_text(path, name=None) -> str:
    """The UTF-8 text of ``path``; other bytes raise ``SessionFormatError``
    naming the file as ``name`` (the path by default)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SessionFormatError(
            f"{name or path}: not UTF-8 text ({exc.reason} at byte "
            f"{exc.start})") from None


# --- channel CSV parsing -------------------------------------------------------


def _parse_header(line: str, lineno: int) -> tuple[str, float]:
    """The first token of a header line and its value."""
    token = line.split(",")[0].strip()
    try:
        return token, float(token)
    except ValueError:
        raise MalformedHeader(f"line {lineno}: cannot parse {token!r}") from None


# the first two lines that are not blank (``\s`` is ``str.isspace``)
_HEADER = re.compile(r"\s*(\S.*)\n\s*(\S.*)\n?")


def parse_channel_csv(content: str, kind: ChannelKind) -> SignalChannel:
    """Parse one channel file's text into a :class:`SignalChannel`.

    The header is the first two non-blank lines. A well-formed body passes
    one check and is read in one NumPy call, as integers over 10**6 or as
    floats (:func:`_parse_body_bulk`); any other body goes through
    :func:`_parse_body_rows`, the only source of body errors and their row
    numbers (blank lines are skipped and not counted). Raises
    ``MalformedHeader`` for unparseable metadata lines, ``WidthMismatch``
    for rows of the wrong width, ``NonFiniteSample`` for values that are
    not finite numbers, and ``EmptyBody`` when no sample rows follow the
    header.
    """
    text = content
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    header = _HEADER.match(text)
    if header is None:
        raise MalformedHeader("need two header lines (start time, sample rate)")
    token, start_time = _parse_header(header[1], 1)
    if not math.isfinite(start_time) or start_time != int(start_time):
        raise MalformedHeader(f"line 1: {token!r} is not an integer")
    _, sample_rate = _parse_header(header[2], 2)
    if not math.isfinite(sample_rate) or sample_rate <= 0:
        raise MalformedHeader("line 2: sample rate must be positive")

    body = text[header.end():]
    samples = _parse_body_bulk(body, kind)
    if samples is None:
        rows = [ln for ln in body.split("\n") if ln.strip()]
        if not rows:
            raise EmptyBody(f"{kind.value}: no sample rows after header")
        samples = _parse_body_rows(rows, kind)
    return SignalChannel(kind=kind, start_time=int(start_time),
                         sample_rate=sample_rate, samples=samples)


# a last newline becomes a trailing comma, which NumPy allows; with each
# '.' deleted too, a fixed-six body becomes integer text
_NL_TO_COMMA = bytes.maketrans(b"\n", b",")


def _parse_body_bulk(body: str, kind: ChannelKind) -> np.ndarray | None:
    """The sample rows of ``body`` (LF line ends) as an (n,) or (n, 3)
    array, or None when the body is not plainly well formed.

    The body must hold only decimal tokens, and its commas and newlines,
    in order, must be ``width - 1`` commas then a newline on every row.
    Then ``np.fromstring`` reads it in one call, and the result counts
    when it is all finite and has exactly ``width`` values per row. An
    empty token (a blank line or cell) makes NumPy stop early: it raises
    ``ValueError``, or in older NumPy versions warns
    ``DeprecationWarning`` and returns the values read so far; both give
    None, so no warning reaches the caller. A body that is not ASCII
    gives None at once. When every token is ``-?D{1,9}.DDDDDD`` (the
    ``%.6f`` text :func:`serialize_channel_csv` writes), NumPy reads the
    digits without the ``.`` as integers ``N``; as ``|N| < 10**15 <
    2**53``, ``N / 10**6`` rounds as ``float`` rounds the token (Clinger
    1990), and ``-0.000000`` gets its sign back.
    """
    try:
        data = body.encode("ascii")
    except UnicodeEncodeError:
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    # a plain decimal token holds digits, '-', '.', '+', 'e' and 'E', a
    # fixed-six one none of the last three; any other character (space,
    # '_', 'x', letters of 'nan'/'inf', non-ASCII digits) sends the body to
    # the row loop, since ``float`` and ``np.fromstring`` disagree on such
    # tokens (``np.fromstring`` reads a cell of spaces as -1)
    rest = data.translate(None, b"0123456789-.,\n")
    if rest.translate(None, b"+eE"):
        return None
    width = kind.width
    b = np.frombuffer(data, np.uint8)
    seps = np.flatnonzero(b <= ord(","))  # '\n', ',' and '+'
    if b"+" in rest:
        seps = seps[b[seps] != ord("+")]
    row_end = np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)
    if seps.size % width or not (b[seps].reshape(-1, width) == row_end).all():
        return None
    n_values = seps.size
    fixed6 = not rest
    if fixed6:
        lengths = np.empty_like(seps)  # first the token starts
        lengths[0] = 0
        np.add(seps[:-1], 1, out=lengths[1:])
        negative = b[lengths] == ord("-")
        np.subtract(seps, lengths, out=lengths)
        lengths -= negative  # 1 to 9 digits, '.', six decimals
        # a '.' 7 bytes before each separator, and the bytes below '0' are
        # only the separators, those dots and the signs at token starts
        fixed6 = not (lengths.min() < 8 or lengths.max() > 16
                      or not (b[seps - 7] == ord(".")).all()
                      or np.count_nonzero(b < ord("0"))
                      != 2 * n_values + np.count_nonzero(negative))
        del lengths
    del seps  # lower the peak while the values exist
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(
                data.translate(_NL_TO_COMMA, b"." if fixed6 else b""),
                np.int64 if fixed6 else float, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if fixed6:
        micros, values = values, values / 1e6  # all finite
        values[negative & (micros == 0)] = -0.0
    if values.size != n_values or not (fixed6 or np.isfinite(values).all()):
        return None
    return values if width == 1 else values.reshape(-1, width)


def _parse_body_rows(body: list[str], kind: ChannelKind) -> np.ndarray:
    width = kind.width
    rows = np.empty((len(body), width), dtype=float)
    for i, line in enumerate(body):
        parts = line.split(",")
        if len(parts) != width:
            raise WidthMismatch(
                f"{kind.value} row {i + 3}: expected {width} columns, "
                f"got {len(parts)}")
        for j, token in enumerate(parts):
            try:
                value = float(token)
            except ValueError:
                raise NonFiniteSample(
                    f"{kind.value} row {i + 3}: bad value {token!r}") from None
            if not math.isfinite(value):
                raise NonFiniteSample(
                    f"{kind.value} row {i + 3}: non-finite value {token!r}")
            rows[i, j] = value
    return rows[:, 0] if width == 1 else rows


# --- channel CSV writing -------------------------------------------------------

# the fast path's bound on |x| * 1e6: below 2**50, np.spacing is at most 1/8,
# so the product's rounding error cannot carry it across a half-integer that
# lies more than np.spacing away (|x| up to about 1.13e9 qualifies)
_MAX_SCALED = 2.0 ** 50
# values formatted per NumPy pass: enough to amortise each pass's overhead,
# few enough that a chunk's arrays stay small beside the text
_CHUNK = 8192


def _zero_padded(n: int) -> np.ndarray:
    """The ASCII bytes of ``f"{i:0{n}d}"`` for each ``i < 10**n``, one row
    each; set by broadcasting, so no integer temporaries raise the import's
    peak memory."""
    digits = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)
    text = np.empty((10,) * n + (n,), np.uint8)
    for place in range(n):
        # the digit at this place is the index along axis ``place``
        text[..., place] = digits.reshape((10,) + (1,) * (n - 1 - place))
    return text.reshape(10 ** n, n)


# f"{i:04d}" and f"{i:02d}" as one uint32 or uint16 of raw bytes per i
_DIGITS4 = _zero_padded(4).view(np.uint32).ravel()
_DIGITS2 = _zero_padded(2).view(np.uint16).ravel()


def serialize_channel_csv(channel: SignalChannel) -> str:
    """Inverse of :func:`parse_channel_csv`; samples written with ``%.6f``.

    The body comes from :func:`_fixed6_chunks` when that is exact for
    every sample, and otherwise from one ``%`` format over all samples
    (for example when a value is not finite, too large, or a near tie at
    the sixth decimal); both give the same bytes.
    """
    width = channel.kind.width
    header1 = ",".join([str(channel.start_time)] * width)
    header2 = ",".join([f"{channel.sample_rate:.6f}"] * width)
    values = channel.samples.ravel()
    parts = _fixed6_chunks(values, width)
    if parts is None:
        row = ",".join(["%.6f"] * width) + "\n"
        parts = [row * channel.n_samples % tuple(values.tolist())]
    return "".join([header1, "\n", header2, "\n", *parts])


def _fixed6_chunks(values: np.ndarray, width: int) -> list[str] | None:
    """``values`` as ``%.6f`` text, ``width`` to a line, in chunks of
    ``_CHUNK`` values (a row may straddle two chunks); None when any chunk
    cannot be written exactly (see :func:`_fixed6_text`)."""
    row_end = np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)
    seps = np.tile(row_end, _CHUNK // width + 2)
    parts = []
    for start in range(0, values.size, _CHUNK):
        chunk = values[start:start + _CHUNK]
        skip = start % width
        text = _fixed6_text(chunk, seps[skip:skip + chunk.size])
        if text is None:
            return None
        parts.append(text)
    return parts


def _column(buf: np.ndarray, shape: tuple[int, int], offset: int,
            dtype) -> np.ndarray:
    """One ``dtype`` item per row of a byte grid of ``shape`` held in
    ``buf``, starting at byte ``offset`` of ``buf`` (items may be
    unaligned)."""
    return np.ndarray(shape[:1], dtype, buffer=buf, offset=offset,
                      strides=shape[1:])


def _fixed6_text(x: np.ndarray, seps: np.ndarray) -> str | None:
    """``'%.6f' % v`` for each value of ``x``, each followed by its byte of
    ``seps``; None when rounding ``|v| * 1e6`` might differ from rounding
    the exact decimal value.

    ``np.rint`` of the product gives the right digits when the product is
    below ``_MAX_SCALED`` (so also finite) and not within ``np.spacing`` of
    a half-integer (Steele & White, PLDI 1990); ``p * 2**-52`` bounds
    ``np.spacing(p)`` from above. The sign comes from the sign bit, so
    ``-0.0`` and small negatives print ``-0.000000`` as ``%`` does.
    """
    scaled = np.abs(x) * 1e6
    if not (scaled < _MAX_SCALED).all():
        return None
    micros = np.rint(scaled)
    if (np.abs(np.abs(scaled - micros) - 0.5) <= scaled * 2.0 ** -52).any():
        return None
    micros = micros.astype(np.int64)
    whole = micros // 1_000_000
    decimals = micros - whole * 1_000_000
    first2 = decimals // 10_000
    last4 = decimals - first2 * 10_000
    negative = np.signbit(x)
    top_digits = len(str(int(whole.max())))
    n_digits = np.ones(x.size, np.int64)
    for k in range(1, top_digits):
        n_digits += whole >= 10 ** k
    field = n_digits + negative  # sign and integer digits
    d = int(field.max())
    # one row of d + 8 bytes per value: the field right-aligned in d
    # columns, then '.', six decimals and the separator; three spare bytes
    # sit before row 0
    w = d + 8
    buf = np.empty(3 + x.size * w, np.uint8)
    grid = buf[3:].reshape(x.size, w)
    # integer digits in zero-padded groups of four, leftmost first; the
    # leftmost may start up to three bytes before its row, in the spare
    # bytes or the previous row's last decimals, which are written later
    groups = (top_digits + 3) // 4
    for g in reversed(range(groups)):
        digits = whole // 10_000 ** g if g else whole
        if g < groups - 1:
            digits = digits % 10_000
        _column(buf, grid.shape, 3 + d - 4 * (g + 1), np.uint32)[:] = \
            _DIGITS4[digits]
    rows = np.flatnonzero(negative)
    grid[rows, d - 1 - n_digits[rows]] = ord("-")
    grid[:, d] = ord(".")
    _column(buf, grid.shape, 3 + d + 1, np.uint16)[:] = _DIGITS2[first2]
    _column(buf, grid.shape, 3 + d + 3, np.uint32)[:] = _DIGITS4[last4]
    grid[:, d + 7] = seps
    if field.min() < d:
        # keep each row from its field's first byte on
        keep = np.ones(grid.shape, bool)
        for c in range(d - 1):
            keep[:, c] = field >= d - c
        grid = grid[keep]
    return str(grid, "ascii")


# --- session directories ----------------------------------------------------------


def load_session(directory, subject_id: str, label: Label) -> Session:
    """Load the four channel files under ``directory`` into a session."""
    directory = Path(directory)
    channels = {}
    for kind in ALL_KINDS:
        path = directory / f"{kind.value}.csv"
        if not path.is_file():
            raise MissingChannelFile(f"{subject_id}: missing {path.name}")
        channels[kind] = parse_channel_csv(
            read_text(path, f"{subject_id}: {path.name}"), kind)
    return Session(subject_id=subject_id, channels=channels, label=label)


def write_session(session: Session, directory) -> None:
    """Write a session to ``directory`` in the canonical channel-CSV format."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind, channel in session.channels.items():
        atomic_write_text(directory / f"{kind.value}.csv",
                          serialize_channel_csv(channel))


def atomic_write_text(path, text: str) -> None:
    """Write via a new, randomly named sibling file (mode per the umask)
    and a rename; readers never see partials, writers never share a temp."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# --- manifest and subject tables ---------------------------------------------


def read_subject_table(path, error=ManifestError):
    """The header and rows of a ``subject_id,...,label`` CSV, with each
    row as ``(lineno, subject_id, middle cells, label)``.

    Cells are stripped; blank lines are skipped but counted. Raises
    ``error``, naming the path and line, for a missing header, a repeated
    column, a row of the wrong width, a subject id that is not a plain
    name or repeats one (a repeat would put one subject in two LOOCV
    folds), or an unknown label.
    """
    lines = [(lineno, [c.strip() for c in ln.split(",")]) for lineno, ln
             in enumerate(read_text(path).splitlines(), start=1) if ln.strip()]
    header = lines[0][1] if lines else []
    ends = [name.lower() for name in header[:1] + header[-1:]]
    if ends != ["subject_id", "label"]:
        raise error(f"{path}: expected subject_id ... label columns")
    for i, name in enumerate(header):
        if name in header[:i]:
            raise error(f"{path}:{lines[0][0]}: column {name!r} appears twice")
    rows, first_line = [], {}
    for lineno, cells in lines[1:]:
        if len(cells) != len(header):
            raise error(f"{path}:{lineno}: expected {len(header)} cells, "
                        f"got {len(cells)}")
        subject_id = cells[0]
        # an id that names another directory (``./S002``) would alias it
        if Path(subject_id).name != subject_id or subject_id in ("", ".."):
            raise error(f"{path}:{lineno}: subject_id {subject_id!r} is not "
                        "a plain name")
        if subject_id in first_line:
            raise error(f"{path}:{lineno}: subject_id {subject_id!r} repeats "
                        f"line {first_line[subject_id]}")
        first_line[subject_id] = lineno
        try:
            label = Label.from_string(cells[-1])
        except ManifestError as exc:
            raise error(f"{path}:{lineno}: {exc}") from None
        rows.append((lineno, subject_id, cells[1:-1], label))
    return header, rows


def load_manifest(path) -> list[tuple[str, Label]]:
    """Read the ``subject_id,label`` manifest, preserving row order."""
    header, rows = read_subject_table(path)
    if len(header) != 2:
        raise ManifestError(f"{path}: expected header 'subject_id,label'")
    return [(subject_id, label) for _, subject_id, _, label in rows]


def write_manifest(entries, path) -> None:
    lines = ["subject_id,label"]
    lines.extend(f"{sid},{label.value}" for sid, label in entries)
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- validation ----------------------------------------------------------------------

# the largest sample magnitude a session may hold: far above any sensor's
# range, and far below where a feature overflows (the largest product,
# pearson_corr's n^2 B^4, is about 1e214 for a 24 h ACC channel)
_MAX_ABS_SAMPLE = 1e50


def validate_session(session: Session,
                     policy: ValidationPolicy | None = None) -> ValidationReport:
    """Screen one session for corruption; failures become report reasons.

    A session is excluded when any channel is shorter than the policy
    minimum, contains non-finite samples or one of magnitude above
    ``_MAX_ABS_SAMPLE``, when the BVP trace is constant (zero variance), or
    when channel durations disagree by more than the allowed skew.
    """
    policy = ValidationPolicy(**check_fields(
        vars(policy or ValidationPolicy()), VALIDATION_RANGES))
    reasons: list[str] = []
    durations = []
    for kind in ALL_KINDS:
        channel = session.channels[kind]
        durations.append(channel.duration_seconds)
        if channel.duration_seconds < policy.min_duration_seconds:
            reasons.append(
                f"{kind.value}: channel too short "
                f"({channel.duration_seconds:.1f} s < "
                f"{policy.min_duration_seconds:.0f} s)")
        peak = float(np.max(np.abs(channel.samples), initial=0.0))
        if not math.isfinite(peak):
            reasons.append(f"{kind.value}: non-finite samples")
        elif peak > _MAX_ABS_SAMPLE:
            reasons.append(f"{kind.value}: a sample of magnitude {peak:.3g} "
                           f"exceeds {_MAX_ABS_SAMPLE:g}")
    bvp = session.channels[ChannelKind.BVP].samples
    if float(np.ptp(bvp)) == 0.0:
        reasons.append("constant BVP (zero variance)")
    skew = max(durations) - min(durations)
    if skew > policy.max_duration_skew_seconds:
        reasons.append(f"channel duration skew {skew:.1f} s exceeds "
                       f"{policy.max_duration_skew_seconds:.0f} s")
    return ValidationReport(session.subject_id, tuple(reasons))
