import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wearbench import session_io, synth
from wearbench.errors import (
    EmptyBody,
    MalformedHeader,
    ManifestError,
    MissingChannelFile,
    NonFiniteSample,
    SessionFormatError,
    WidthMismatch,
)
from wearbench.session_io import (
    ChannelKind,
    Label,
    Session,
    SignalChannel,
    ValidationPolicy,
    ValidationStatus,
    load_manifest,
    load_session,
    parse_channel_csv,
    serialize_channel_csv,
    validate_session,
    write_manifest,
    write_session,
)


class TestParseChannelCsv:
    def test_temp_example(self):
        ch = parse_channel_csv("1581246953\n4.0\n36.5\n36.6", ChannelKind.TEMP)
        assert ch.start_time == 1581246953
        assert ch.sample_rate == 4.0
        assert np.allclose(ch.samples, [36.5, 36.6])

    def test_acc_example(self):
        ch = parse_channel_csv("0\n32.0,32.0,32.0\n3,4,0", ChannelKind.ACC)
        assert ch.sample_rate == 32.0
        assert ch.samples.shape == (1, 3)
        assert np.allclose(ch.samples[0], [3, 4, 0])

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            parse_channel_csv("abc\n4.0\n1.0", ChannelKind.EDA)
        with pytest.raises(MalformedHeader):
            parse_channel_csv("100\n-4.0\n1.0", ChannelKind.EDA)
        with pytest.raises(MalformedHeader):
            parse_channel_csv("100\n", ChannelKind.EDA)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            parse_channel_csv("0\n32,32,32\n1,2", ChannelKind.ACC)
        with pytest.raises(WidthMismatch):
            parse_channel_csv("0\n4.0\n1,2", ChannelKind.EDA)

    def test_non_finite(self):
        with pytest.raises(NonFiniteSample):
            parse_channel_csv("0\n4.0\nnan", ChannelKind.EDA)
        with pytest.raises(NonFiniteSample):
            parse_channel_csv("0\n4.0\nbogus", ChannelKind.EDA)

    def test_empty_body(self):
        with pytest.raises(EmptyBody):
            parse_channel_csv("0\n4.0\n", ChannelKind.EDA)

    def test_crlf_accepted(self):
        ch = parse_channel_csv("10\r\n4.0\r\n1.0\r\n2.0\r\n", ChannelKind.BVP)
        assert ch.n_samples == 2

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_parse_is_total(self, content):
        # every input either parses or raises a typed format error
        try:
            ch = parse_channel_csv(content, ChannelKind.EDA)
        except SessionFormatError:
            return
        assert ch.n_samples >= 1
        assert ch.sample_rate > 0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           st.sampled_from([1.0, 4.0, 32.0, 64.0]))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_six_decimals(self, values, rate):
        ch = SignalChannel(ChannelKind.EDA, 1700000000, rate,
                           np.asarray(values))
        back = parse_channel_csv(serialize_channel_csv(ch), ChannelKind.EDA)
        assert back.start_time == ch.start_time
        assert back.sample_rate == pytest.approx(rate, abs=1e-6)
        assert np.allclose(back.samples, ch.samples, atol=5e-7)


def _old_serialize(channel):
    """The per-value formatter the bulk serializer replaced."""
    width = channel.kind.width
    lines = [",".join([str(channel.start_time)] * width),
             ",".join([f"{channel.sample_rate:.6f}"] * width)]
    for row in np.atleast_2d(channel.samples.reshape(channel.n_samples, width)):
        lines.append(",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


def _first_difference(text, reference):
    """``(line number, line, reference line)`` where two texts first
    differ, or None; a short report where a diff of the whole text would
    take minutes."""
    lines, ref_lines = text.split("\n"), reference.split("\n")
    for i, (line, ref) in enumerate(zip(lines, ref_lines), start=1):
        if line != ref:
            return i, line, ref
    if len(lines) != len(ref_lines):
        return min(len(lines), len(ref_lines)) + 1, len(lines), len(ref_lines)
    return None


def _parse_outcome(content, kind):
    """Parsed samples, or the (type, message) of the error raised."""
    try:
        return parse_channel_csv(content, kind).samples
    except SessionFormatError as exc:
        return type(exc), str(exc)


def _row_loop_parse(content, kind):
    """The line-list parse the bulk tier sits in front of: every non-blank
    line, two header lines, then the row loop over the rest."""
    lines = content.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = [ln for ln in lines if ln.strip() != ""]
    if len(lines) < 2:
        raise MalformedHeader("need two header lines (start time, sample rate)")
    token, start_time = session_io._parse_header(lines[0], 1)
    if not np.isfinite(start_time) or start_time != int(start_time):
        raise MalformedHeader(f"line 1: {token!r} is not an integer")
    _, sample_rate = session_io._parse_header(lines[1], 2)
    if not np.isfinite(sample_rate) or sample_rate <= 0:
        raise MalformedHeader("line 2: sample rate must be positive")
    if not lines[2:]:
        raise EmptyBody(f"{kind.value}: no sample rows after header")
    return SignalChannel(kind, int(start_time), sample_rate,
                         session_io._parse_body_rows(lines[2:], kind))


def _row_loop_outcome(content, kind):
    try:
        return _row_loop_parse(content, kind).samples
    except SessionFormatError as exc:
        return type(exc), str(exc)


def _same_outcome(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _fromstring_dtypes(body, kind):
    """The dtype of each ``np.fromstring`` call that the bulk parse of
    ``body`` makes: ``int64`` for a fixed-six body, ``float64`` for any
    other plain decimal body, and no call for one left to the row loop."""
    dtypes = []
    fromstring = np.fromstring

    def spy(text, dtype=float, sep=""):
        dtypes.append(np.dtype(dtype))
        return fromstring(text, dtype, sep=sep)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_io.np, "fromstring", spy)
        session_io._parse_body_bulk(body, kind)
    return dtypes


class TestBulkParse:
    """The bulk parse must agree with the row loop on every input."""

    @pytest.mark.parametrize("kind,body,error", [
        (ChannelKind.EDA, "1.0\n1,2\n", WidthMismatch),
        (ChannelKind.ACC, "1,2,3\n1,2\n4,5,6\n", WidthMismatch),
        (ChannelKind.ACC, "1,2,3\n1,2,3,4\n", WidthMismatch),
        (ChannelKind.EDA, "1.0\nnan\n", NonFiniteSample),
        (ChannelKind.EDA, "1.0\n2.0\ninf\n", NonFiniteSample),
        (ChannelKind.EDA, "1.0\nabc\n", NonFiniteSample),
        (ChannelKind.ACC, "1,2,3\n4,-inf,6\n", NonFiniteSample),
        (ChannelKind.ACC, "1,2,3\n4,5,abc\n", NonFiniteSample),
        (ChannelKind.ACC, "1,2,nan\n1,2\n", NonFiniteSample),
        # the right number of commas in all, but not on each row
        (ChannelKind.ACC, "1,2,3,4\n5,6\n", WidthMismatch),
        (ChannelKind.EDA, "1\n \n2\n, \n", WidthMismatch),
        (ChannelKind.EDA, "1\n2\n 1, \n", WidthMismatch),
        (ChannelKind.ACC, "1, ,3\n", NonFiniteSample),
        (ChannelKind.EDA, "1\n0x10\n", NonFiniteSample),
        (ChannelKind.EDA, "\n\n", EmptyBody),
    ])
    def test_errors_match_row_loop(self, kind, body, error):
        header = "0\n4.0\n" if kind.width == 1 else "0\n32,32,32\n"
        bulk = _parse_outcome(header + body, kind)
        loop = _row_loop_outcome(header + body, kind)
        assert bulk[0] is error
        assert bulk == loop

    @pytest.mark.parametrize("token,value", [
        (" 1.5", 1.5), ("1e3", 1000.0), ("1_000", 1000.0), ("+2", 2.0),
        ("-0.0", -0.0), ("\t3.25 ", 3.25), ("1E-3", 0.001),
    ])
    def test_float_syntax_matches_row_loop(self, token, value):
        for kind, body in ((ChannelKind.EDA, f"7\n{token}\n"),
                           (ChannelKind.ACC, f"7,7,7\n{token},0,{token}\n")):
            header = "0\n4.0\n" if kind.width == 1 else "0\n32,32,32\n"
            bulk = _parse_outcome(header + body, kind)
            assert _same_outcome(bulk, _row_loop_outcome(header + body, kind))
            assert np.ravel(bulk)[-1] == value
            assert np.signbit(np.ravel(bulk)[-1]) == np.signbit(value)

    # an empty row is a blank line, a row of " " or "\t" a whitespace-only
    # line; "0x10" through "1e400" are tokens that ``float`` and
    # ``np.fromstring`` read differently, or only one of them reads
    @given(rows=st.lists(st.lists(st.sampled_from(
        ["1", "-2.5", " 3", "1e3", "1_0", "nan", "inf", "x", "", "0.000001",
         "0x10", "1_000", "\uff11", "infinity", " ", "\t", "+.5", "5.", "1e",
         "-0.0", "1E-3", "00012", "1e400", "1.2.3", "--1"]),
        min_size=0, max_size=4), min_size=1, max_size=12),
        acc=st.booleans(), newline=st.sampled_from(["\n", "\r\n", "\r"]),
        lead=st.sampled_from(["", "\n", " \n\t\n", "\x1c\n\x0c"]),
        last=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_random_bodies_match_row_loop(self, rows, acc, newline, lead,
                                          last):
        kind = ChannelKind.ACC if acc else ChannelKind.EDA
        header = ["0", "32,32,32" if acc else "4.0"]
        lines = header + [",".join(r) for r in rows]
        content = lead + newline.join(lines) + (newline if last else "")
        assert _same_outcome(_parse_outcome(content, kind),
                             _row_loop_outcome(content, kind))

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=30),
           fmt=st.sampled_from([repr, "{:.6f}".format, "{:g}".format,
                                "{:E}".format]),
           acc=st.booleans(), last=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_plain_bodies_take_the_bulk_tier(self, values, fmt, acc, last):
        kind = ChannelKind.ACC if acc else ChannelKind.EDA
        width = kind.width
        values = values[:len(values) // width * width] or [0.0] * width
        body = "\n".join(",".join(fmt(v) for v in values[i:i + width])
                         for i in range(0, len(values), width))
        body += "\n" if last else ""
        assert session_io._parse_body_bulk(body, kind) is not None
        content = ("0\n32,32,32\n" if acc else "0\n4.0\n") + body
        assert _same_outcome(_parse_outcome(content, kind),
                             _row_loop_outcome(content, kind))

    @pytest.mark.parametrize("content,kind,want", [
        # not ASCII: the byte check gives up, the row loop reads the digit
        ("0\n4.0\n1\n\u0663\n", ChannelKind.EDA, [1.0, 3.0]),
        ("0\n32,32,32\n1,2,3\n4,\u0663,6\n", ChannelKind.ACC,
         [[1.0, 2.0, 3.0], [4.0, 3.0, 6.0]]),
        ("0\n4.0\n1\n2\u00e9\n", ChannelKind.EDA,
         (NonFiniteSample, "EDA row 4: bad value '2\u00e9'")),
        ("0\n32,32,32\n1,2\u00a0,3\n", ChannelKind.ACC,
         [[1.0, 2.0, 3.0]]),
        # line ends other than LF are rewritten first
        ("0\r4.0\r1.5\r-2\r", ChannelKind.EDA, [1.5, -2.0]),
        ("0\r32,32,32\r1,2,3\r4,5,6", ChannelKind.ACC,
         [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        ("0\r\n4.0\n1\r\n2\n3\r\n", ChannelKind.EDA, [1.0, 2.0, 3.0]),
        ("0\n4.0\r\n1\n2,3\r\n", ChannelKind.EDA,
         (WidthMismatch, "EDA row 4: expected 1 columns, got 2")),
        # no final newline
        ("0\n4.0\n1\n2.5", ChannelKind.EDA, [1.0, 2.5]),
        ("0\n32,32,32\n1,2,3\n4,5,6", ChannelKind.ACC,
         [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        ("0\n4.0\n1\nnan", ChannelKind.EDA,
         (NonFiniteSample, "EDA row 4: non-finite value 'nan'")),
    ])
    def test_byte_check_and_line_ends_match_row_loop(self, content, kind,
                                                     want):
        got = _parse_outcome(content, kind)
        assert _same_outcome(got, _row_loop_outcome(content, kind))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("partial", [[1.0], [1.0, 2.0]])
    def test_numpy_deprecation_warning_is_a_rejection(self, monkeypatch,
                                                      partial):
        # older NumPy warns on unmatched data and returns what it read
        def warning_fromstring(text, dtype, sep):
            warnings.warn("string or file could not be read to its end due "
                          "to unmatched data", DeprecationWarning)
            return np.array(partial)

        monkeypatch.setattr(session_io.np, "fromstring", warning_fromstring)
        content = "0\n4.0\n1\n2.5\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert session_io._parse_body_bulk("1\n2.5\n",
                                               ChannelKind.EDA) is None
            assert np.array_equal(parse_channel_csv(content, ChannelKind.EDA)
                                  .samples, [1.0, 2.5])
        assert caught == []

    # 999,999,999.999999 is the largest value the integer tier takes; values
    # in (-5e-7, 0) print as -0.000000, whose integer reads as +0
    @given(values=st.lists(st.one_of(
        st.floats(-999_999_999.999999, 999_999_999.999999),
        st.floats(999_999_000.0, 999_999_999.999999),
        st.floats(-999_999_999.999999, -999_999_000.0),
        st.floats(-4.9e-7, 0.0, exclude_max=True),
        st.just(-0.0)), min_size=1, max_size=30),
        acc=st.booleans(), last=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_written_bodies_take_the_integer_tier(self, values, acc, last):
        kind = ChannelKind.ACC if acc else ChannelKind.EDA
        values = values[:len(values) // kind.width * kind.width] or [-0.0] * 3
        samples = np.reshape(values, (-1, 3)) if acc else np.array(values)
        content = serialize_channel_csv(SignalChannel(kind, 0, 32.0, samples))
        content = content if last else content[:-1]
        body = content.split("\n", 2)[2]
        assert _fromstring_dtypes(body, kind) == [np.int64]
        assert _same_outcome(_parse_outcome(content, kind),
                             _row_loop_outcome(content, kind))

    @pytest.mark.parametrize("kind,body", [
        (ChannelKind.EDA, "1.000000\n2.00000\n"),
        (ChannelKind.EDA, "1.000000\n2.0000000\n"),
        (ChannelKind.EDA, "1.000000\n9999999999.999999\n"),  # N > 2**53
        (ChannelKind.EDA, "-9999999999.999999\n"),
        (ChannelKind.EDA, "1.000000\n--1.000000\n"),
        (ChannelKind.EDA, "1.000000\n1-1.000000\n"),
        (ChannelKind.EDA, "1.0000-0\n"),
        (ChannelKind.EDA, "1.000000\n1e5.000000\n"),
        (ChannelKind.EDA, "1.000000\n2.000000 \n"),
        (ChannelKind.EDA, "1.000000\n\n2.000000\n"),
        (ChannelKind.EDA, "\n1.000000\n"),
        (ChannelKind.EDA, "1.000000\n.000000\n"),
        (ChannelKind.EDA, "1.000000\n1..000000\n"),
        (ChannelKind.EDA, "+1.000000\n"),
        (ChannelKind.EDA, "1.000000,2.000000\n"),
        (ChannelKind.ACC, "1.000000,2.000000,3.000000\n4.000000,5.000000\n"),
        (ChannelKind.ACC, "1.000000,2.000000\n3.000000,4.000000\n"
                          "5.000000,6.000000\n"),
        (ChannelKind.ACC, "1.000000,-2.00000,3.000000\n"),
        (ChannelKind.ACC, "1.000000,2.000000,--3.000000"),
    ])
    def test_near_misses_leave_the_integer_tier(self, kind, body):
        assert _fromstring_dtypes(body, kind) in ([], [np.float64])
        content = ("0\n32,32,32\n" if kind.width == 3 else "0\n4.0\n") + body
        assert _same_outcome(_parse_outcome(content, kind),
                             _row_loop_outcome(content, kind))

    # every body holds a token that is not fixed six: more or fewer
    # decimals, or an exponent, with or without its '+'
    @given(values=st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=30),
           fmts=st.lists(st.sampled_from(["{:.6f}", "{:.3f}", "{:.7f}",
                                          "{:E}", "{:+E}", "{:.2e}"]),
                         min_size=30, max_size=30),
           acc=st.booleans(), last=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_mixed_and_exponent_bodies_take_the_float_tier(self, values, fmts,
                                                           acc, last):
        kind = ChannelKind.ACC if acc else ChannelKind.EDA
        values = values[:len(values) // kind.width * kind.width] or [1.5] * 3
        if all(f == "{:.6f}" for f in fmts[:len(values)]):
            fmts[0] = "{:E}"
        tokens = [f.format(v) for f, v in zip(fmts, values)]
        body = "\n".join(",".join(tokens[i:i + kind.width])
                         for i in range(0, len(tokens), kind.width))
        body += "\n" if last else ""
        assert _fromstring_dtypes(body, kind) == [np.float64]
        content = ("0\n32,32,32\n" if acc else "0\n4.0\n") + body
        assert _same_outcome(_parse_outcome(content, kind),
                             _row_loop_outcome(content, kind))

    @pytest.mark.parametrize("kind,body", [
        (ChannelKind.EDA, "1.000000\n2.5\n"),
        (ChannelKind.EDA, "1.000000\n-2.000000E+00\n"),
        (ChannelKind.EDA, "1.500000E+02\n-2.000000E-03\n1.000000\n"),
        (ChannelKind.EDA, "+1.000000\n2.000000e+5\n"),
        (ChannelKind.ACC, "1.000000,2.000000,3.000\n4.000000,5.0,6.000000\n"),
        (ChannelKind.ACC, "1.234560E+00,-1.000000,+7.000000E+308\n"),
        (ChannelKind.ACC, "1.000000,2.000000,3.000000\n4E+1,5e+1,6E-1"),
    ])
    def test_mixed_and_exponent_cases_take_the_float_tier(self, kind, body):
        assert _fromstring_dtypes(body, kind) == [np.float64]
        content = ("0\n32,32,32\n" if kind.width == 3 else "0\n4.0\n") + body
        assert _same_outcome(_parse_outcome(content, kind),
                             _row_loop_outcome(content, kind))

    @pytest.mark.parametrize("kind,fmt,bound", [
        (ChannelKind.ACC, None, 5.0),
        (ChannelKind.BVP, None, 5.0),
        (ChannelKind.ACC, "%.3f", 5.5),
    ])
    def test_parse_peak_memory(self, kind, fmt, bound):
        # the body's str and ASCII copies, the digit text NumPy reads and
        # the values; the separator arrays are freed before the read
        channel = synth.generate_session(synth.SynthSpec(seed=5)).channel(kind)
        content = serialize_channel_csv(channel)
        if fmt is not None:
            header = content.split("\n", 2)[:2]
            row = ",".join([fmt] * kind.width) + "\n"
            content = "\n".join(header) + "\n" + (
                row * channel.n_samples % tuple(channel.samples.ravel()))
        tracemalloc.start()
        try:
            parsed = parse_channel_csv(content, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.n_samples == channel.n_samples
        assert peak <= bound * len(content)


class TestBulkSerialize:
    @given(st.lists(st.floats(-1e9, 1e9), min_size=3, max_size=60),
           st.sampled_from(list(ChannelKind)))
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_per_value_format(self, values, kind):
        n = len(values) // kind.width
        samples = np.asarray(values[:n * kind.width])
        if kind.width == 3:
            samples = samples.reshape(n, 3)
        ch = SignalChannel(kind, 1700000000, 32.0, samples)
        assert serialize_channel_csv(ch) == _old_serialize(ch)

    def test_negative_zero_and_rounding(self):
        ch = SignalChannel(ChannelKind.EDA, 5, 4.0,
                           np.array([-0.0, 0.0000005, -1e-7, 2.5e-6, 1e15]))
        assert serialize_channel_csv(ch) == _old_serialize(ch)

    @staticmethod
    def _check(values, kind=ChannelKind.EDA, fast=True):
        """Same bytes as the per-value format, and the fast path taken
        (or refused) as ``fast`` says."""
        values = np.asarray(values, dtype=float)
        ch = SignalChannel(kind, 1700000000, 32.0,
                           values.reshape(-1, kind.width) if kind.width == 3
                           else values)
        assert _first_difference(serialize_channel_csv(ch),
                                 _old_serialize(ch)) is None
        if fast is not None:
            parts = session_io._fixed6_chunks(values.ravel(), kind.width)
            assert (parts is not None) == fast

    @pytest.mark.parametrize("k", [0, 1, 7, 7812, 499_999, 36_412_345,
                                   123_456_789_012])
    def test_neighbours_of_sixth_decimal_ties(self, k):
        # either path may write a near tie, but the bytes must not change
        tie = (k + 0.5) * 1e-6
        for step in range(-3, 4):
            value = tie
            for _ in range(abs(step)):
                value = np.nextafter(value, np.inf if step > 0 else 0.0)
            self._check([0.25, value, -1.5], fast=None)
            self._check([0.25, -value, -1.5], fast=None)

    def test_exact_tie_is_refused(self):
        # 0.0078125 * 1e6 is exactly 7812.5, and 5e-7 * 1e6 lies within
        # np.spacing of 0.5: np.rint of the product cannot be trusted there
        self._check([0.25, 0.0078125], fast=False)
        self._check([0.25, 5e-7], fast=False)
        self._check([0.25, 0.0078124], fast=True)

    def test_signed_zeros_and_tiny_negatives(self):
        values = [-0.0, 0.0, -1e-300, -5e-324, -1e-9, -4.9e-7, 4.9e-7,
                  -0.5000004, 3.0]
        self._check(values)
        text = serialize_channel_csv(
            SignalChannel(ChannelKind.TEMP, 1, 4.0, np.array(values)))
        assert text.splitlines()[2:6] == ["-0.000000", "0.000000",
                                          "-0.000000", "-0.000000"]

    def test_range_limit(self):
        limit = session_io._MAX_SCALED / 1e6  # about 1.13e9
        inside = [np.nextafter(limit, 0.0) - 0.5, 999_999_999.9999998,
                  -1_000_000_000.25, 1_125_899_906.75]
        self._check(inside + [1.0, -2.0])
        for outside in (limit, np.nextafter(limit, np.inf), -2e9, np.inf,
                        np.nan):
            self._check(inside + [outside], fast=False)

    @pytest.mark.parametrize("kind", [ChannelKind.BVP, ChannelKind.ACC])
    def test_longer_than_one_chunk(self, kind):
        rng = np.random.default_rng(5)
        n = 3 * session_io._CHUNK + 7
        scale = 10.0 ** rng.integers(-3, 6, n * kind.width)
        self._check(rng.normal(0.0, 1.0, n * kind.width) * scale, kind)

    def test_acc_rows_straddle_chunk_boundaries(self):
        # a chunk is not a whole number of ACC rows, so rows cross its edge
        chunk = session_io._CHUNK
        assert chunk % 3
        rng = np.random.default_rng(6)
        values = rng.normal(0.0, 40.0, 2 * chunk + 2)
        values[chunk - 2:chunk + 2] = [-0.0, 123.456789, -7e-7, 9e8]
        self._check(values, ChannelKind.ACC)
        text = serialize_channel_csv(SignalChannel(
            ChannelKind.ACC, 1, 32.0, values.reshape(-1, 3)))
        row = (chunk - 2) // 3 + 2  # the row holding values chunk-2..chunk
        assert text.splitlines()[row].split(",") == [
            f"{v:.6f}" for v in values[chunk - 2:chunk + 1]]

    def test_long_channel_peak_memory(self):
        # one text copy for the chunks and one for the joined result; the
        # per-value format peaked near six
        rng = np.random.default_rng(7)
        ch = SignalChannel(ChannelKind.ACC, 1700000000, 32.0,
                           rng.normal(0.4, 0.3, (1_000_000, 3)))
        tracemalloc.start()
        try:
            text = serialize_channel_csv(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * len(text)


class TestSessionDirectories:
    def test_write_then_load_round_trip(self, tmp_path):
        spec = synth.SynthSpec(seed=21, duration_s=70.0)
        session = synth.generate_session(spec, subject_id="S001")
        write_session(session, tmp_path / "S001")
        back = load_session(tmp_path / "S001", "S001", session.label)
        for kind in ChannelKind:
            a = session.channels[kind].samples
            b = back.channels[kind].samples
            assert np.allclose(a, b, atol=5e-7)  # 6-decimal serialization

    def test_non_utf8_channel_names_subject_and_file(self, tmp_path):
        spec = synth.SynthSpec(seed=23, duration_s=70.0)
        session = synth.generate_session(spec, subject_id="S001")
        write_session(session, tmp_path / "S001")
        with open(tmp_path / "S001" / "TEMP.csv", "ab") as handle:
            handle.write(b"\xff\n")
        with pytest.raises(SessionFormatError,
                           match=r"^S001: TEMP\.csv: not UTF-8 text") as info:
            load_session(tmp_path / "S001", "S001", session.label)
        assert str(tmp_path) not in str(info.value)

    def test_missing_channel_file(self, tmp_path):
        spec = synth.SynthSpec(seed=22, duration_s=70.0)
        session = synth.generate_session(spec, subject_id="S002")
        write_session(session, tmp_path / "S002")
        (tmp_path / "S002" / "TEMP.csv").unlink()
        with pytest.raises(MissingChannelFile):
            load_session(tmp_path / "S002", "S002", session.label)

    def test_session_requires_four_kinds(self, make_session):
        session = make_session()
        channels = dict(session.channels)
        channels.pop(ChannelKind.TEMP)
        with pytest.raises(ValueError):
            Session(subject_id="X", channels=channels, label=Label.UNIPOLAR)

    def test_session_names_extra_channel_keys(self, make_session):
        channels = dict(make_session().channels)
        channels["PPG"] = channels[ChannelKind.BVP]
        with pytest.raises(ValueError,
                           match=r"missing=\[\], extra=\['PPG'\]$"):
            Session(subject_id="X", channels=channels, label=Label.UNIPOLAR)


class TestAtomicWrite:
    def test_stale_fixed_name_temp_does_not_block(self, tmp_path):
        # a fixed "<name>.tmp" temp name would collide with this directory,
        # as it would with another run's temp file
        (tmp_path / "features.csv.tmp").mkdir()
        target = tmp_path / "features.csv"
        session_io.atomic_write_text(target, "a,b\n1,2\n")
        assert target.read_text(encoding="utf-8") == "a,b\n1,2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["features.csv", "features.csv.tmp"]

    def test_overwrites_and_mode_follows_umask(self, tmp_path):
        import os
        target = tmp_path / "out.json"
        session_io.atomic_write_text(target, "old")
        session_io.atomic_write_text(target, "new")
        assert target.read_text(encoding="utf-8") == "new"
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_temp_file_removed_when_rename_fails(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        (target / "keep").write_text("x")
        with pytest.raises(OSError):
            session_io.atomic_write_text(target, "text")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


class TestManifest:
    def test_round_trip_and_case_insensitive(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest([("S001", Label.UNIPOLAR), ("S002", Label.BIPOLAR)],
                       path)
        assert load_manifest(path) == [("S001", Label.UNIPOLAR),
                                       ("S002", Label.BIPOLAR)]
        path.write_text("subject_id,label\nA,Unipolar\nB,BIPOLAR\n")
        assert [lab for _, lab in load_manifest(path)] == [Label.UNIPOLAR,
                                                           Label.BIPOLAR]

    def test_bad_header_and_label(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,lab\nA,unipolar\n")
        with pytest.raises(ManifestError):
            load_manifest(path)
        path.write_text("subject_id,label\nA,mixed\n")
        with pytest.raises(ManifestError):
            load_manifest(path)
        path.write_text("subject_id,label\nS001,unipolar\n\nS001,bipolar\n")
        with pytest.raises(ManifestError, match=(
                r"manifest\.csv:4: subject_id 'S001' repeats line 2")):
            load_manifest(path)


    @pytest.mark.parametrize("content,message", [
        (b"subject_id,label\nS001,unipolar\n\nS002,mixed\n",
         r"manifest\.csv:4: unknown label 'mixed'$"),
        (b"subject_id,label\nS001,unipolar\xff\n",
         r"manifest\.csv: not UTF-8 text"),
        (b"subject_id,label\nS002,bipolar\n./S002,bipolar\n",
         r"manifest\.csv:3: subject_id '\./S002' is not a plain name"),
        (b"subject_id,label\nS004,bipolar\nS004/,bipolar\n",
         r"manifest\.csv:3: subject_id 'S004/' is not a plain name"),
        (b"subject_id,label\nsub/S001,unipolar\n",
         r"manifest\.csv:2: subject_id 'sub/S001' is not a plain name"),
        (b"subject_id,label\n..,unipolar\n",
         r"manifest\.csv:2: subject_id '\.\.' is not a plain name"),
        (b"subject_id,label\n.,unipolar\n",
         r"manifest\.csv:2: subject_id '\.' is not a plain name"),
        (b"subject_id,label\n,unipolar\n",
         r"manifest\.csv:2: subject_id '' is not a plain name"),
        (b"subject_id,label\nS001\n",
         r"manifest\.csv:2: expected 2 cells, got 1"),
        (b"subject_id,TEMP_mean,label\nS001,1.5,unipolar\n",
         r"manifest\.csv: expected header 'subject_id,label'"),
        (b"", r"manifest\.csv: expected subject_id \.\.\. label columns"),
    ], ids=["unknown label", "not UTF-8", "dot-slash alias", "trailing-slash "
            "alias", "nested path", "parent directory", "current directory",
            "empty id", "short row", "feature column", "empty file"])
    def test_bad_manifest_rejected(self, tmp_path, content, message):
        path = tmp_path / "manifest.csv"
        path.write_bytes(content)
        # ManifestError, or for bytes that are not UTF-8 its base class
        with pytest.raises(SessionFormatError, match=message):
            load_manifest(path)


class TestValidation:
    def test_healthy_synthetic_session_ok(self, default_session):
        report = validate_session(default_session)
        assert report.status is ValidationStatus.OK
        assert report.reasons == ()

    def test_constant_bvp_excluded(self, make_session):
        session = make_session(bvp=np.zeros(64 * 90))
        report = validate_session(session)
        assert report.status is ValidationStatus.EXCLUDED
        assert any("constant BVP" in r for r in report.reasons)

    def test_short_channel_excluded(self, make_session):
        session = make_session(eda=np.full(4 * 30, 2.0))
        report = validate_session(session)
        assert report.status is ValidationStatus.EXCLUDED
        assert any("channel too short" in r for r in report.reasons)
        # oracle: duration = len / rate = 30 s < 60 s default
        assert session.channels[ChannelKind.EDA].duration_seconds == 30.0

    def test_nan_excluded(self, make_session):
        eda = np.full(4 * 90, 2.0)
        eda[10] = np.nan
        report = validate_session(make_session(eda=eda))
        assert report.status is ValidationStatus.EXCLUDED
        assert any("non-finite" in r for r in report.reasons)

    def test_duration_skew_excluded(self, make_session):
        session = make_session(eda=np.full(4 * 80, 2.0), n_seconds=90.0)
        report = validate_session(session)
        assert any("skew" in r for r in report.reasons)
        ok = validate_session(session,
                              ValidationPolicy(max_duration_skew_seconds=15.0))
        assert ok.status is ValidationStatus.OK

    def test_policy_min_duration(self, make_session):
        session = make_session(n_seconds=45.0)
        strict = validate_session(session)
        assert strict.status is ValidationStatus.EXCLUDED
        lax = validate_session(session,
                               ValidationPolicy(min_duration_seconds=30.0))
        assert lax.status is ValidationStatus.OK


@pytest.mark.parametrize("value", [float("nan"), "60"])
def test_validation_policy_out_of_range_raises(default_session, value):
    # a NaN minimum excluded nothing, and "60" was accepted
    with pytest.raises(ValueError, match="^min_duration_seconds must be"):
        validate_session(default_session,
                         ValidationPolicy(min_duration_seconds=value))


@pytest.mark.parametrize("start_time", [1.5, 2.0, "x", True],
                         ids=repr)
def test_channel_start_time_must_be_an_integer(start_time):
    # 1.5 was accepted and written as the header 1.5, which
    # parse_channel_csv rejects: "line 1: '1.5' is not an integer"
    with pytest.raises(ValueError, match=re.escape(
            f"start_time must be an integer, got {start_time!r}")):
        SignalChannel(ChannelKind.TEMP, start_time, 4.0, np.ones(10))


def test_channel_start_time_is_kept_as_a_python_int():
    channel = SignalChannel(ChannelKind.TEMP, np.int64(-5), 4.0, np.ones(10))
    assert type(channel.start_time) is int and channel.start_time == -5
    assert parse_channel_csv(serialize_channel_csv(channel),
                             ChannelKind.TEMP).start_time == -5
