import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepfx import data as data_module
from sepfx.data import (
    ColumnMap,
    FourArmDataset,
    TwoArmDataset,
    load_four_arm,
    load_two_arm,
    restrict_to_two_arm,
    save_four_arm,
    save_two_arm,
)
from sepfx.errors import (
    DataError,
    EmptyDataset,
    EmptySubset,
    MissingColumn,
    NonBinaryTreatment,
    NonNumericCell,
)
from sepfx.simulation import SimConfig, generate_dataset

from conftest import make_four_arm, make_two_arm


def test_four_arm_accessors():
    ds = make_four_arm(n=40)
    assert ds.n == 40
    assert ds.n_mediators == 2
    assert ds.x.shape == (40, 3)
    assert ds.column_names()[0] == "y"
    assert "m1" in ds.column_names() and "x3" in ds.column_names()


def test_arrays_are_frozen():
    ds = make_four_arm()
    with pytest.raises(ValueError):
        ds.y[0] = 99.0
    with pytest.raises(ValueError):
        ds.x[0, 0] = 99.0


def test_non_binary_treatment_rejected():
    ds = make_four_arm()
    bad = np.array(ds.a_y)
    bad[0] = 2.0
    with pytest.raises(NonBinaryTreatment):
        FourArmDataset(
            y=ds.y, a_y=bad, a_m=ds.a_m, m=ds.m, x=ds.x,
            outcome_name="y", a_y_name="aY", a_m_name="aM",
            mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
        )


def test_nonfinite_outcome_rejected():
    ds = make_four_arm()
    bad = np.array(ds.y)
    bad[3] = np.nan
    with pytest.raises(DataError):
        FourArmDataset(
            y=bad, a_y=ds.a_y, a_m=ds.a_m, m=ds.m, x=ds.x,
            outcome_name="y", a_y_name="aY", a_m_name="aM",
            mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
        )


def test_round_trip_four_arm(tmp_path):
    ds = make_four_arm(n=25, seed=3)
    path = tmp_path / "d4.csv"
    save_four_arm(ds, path)
    back = load_four_arm(path)
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.a_y, ds.a_y)
    np.testing.assert_array_equal(back.a_m, ds.a_m)
    np.testing.assert_array_equal(back.m, ds.m)
    np.testing.assert_array_equal(back.x, ds.x)
    assert back.mediator_names == ds.mediator_names
    assert back.covariate_names == ds.covariate_names


def test_round_trip_two_arm(tmp_path):
    ds = make_two_arm(n=25, seed=3)
    path = tmp_path / "d2.csv"
    save_two_arm(ds, path)
    back = load_two_arm(path)
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.a, ds.a)
    np.testing.assert_array_equal(back.m, ds.m)
    np.testing.assert_array_equal(back.x, ds.x)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=4, max_size=4,
    )
)
def test_round_trip_preserves_arbitrary_floats(values):
    ds = FourArmDataset(
        y=np.array(values), a_y=np.array([0.0, 0.0, 1.0, 1.0]),
        a_m=np.array([0.0, 1.0, 0.0, 1.0]),
        m=np.array(values).reshape(4, 1) * 0.5,
        x=np.array(values).reshape(4, 1) * 0.25,
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=("m1",), covariate_names=("x1",),
    )
    buf = io.StringIO()
    save_four_arm(ds, buf)
    back = load_four_arm(buf.getvalue().encode("utf-8"))
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.m, ds.m)


def test_load_missing_column():
    with pytest.raises(MissingColumn):
        load_four_arm(b"y,aY,m1,x1\n1,0,0.5,0.2\n")


def test_load_non_numeric_cell_reports_position():
    src = b"y,aY,aM,m1,x1\n1,0,1,0.5,0.2\n2,0,1,oops,0.3\n"
    with pytest.raises(NonNumericCell) as exc:
        load_four_arm(src)
    assert "m1" in str(exc.value)
    assert "row 2" in str(exc.value)


def test_load_rejects_nan_token():
    src = b"y,aY,aM,m1,x1\nnan,0,1,0.5,0.2\n"
    with pytest.raises(DataError):
        load_four_arm(src)


def test_load_duplicate_header():
    with pytest.raises(DataError):
        load_four_arm(b"y,aY,aM,m1,m1,x1\n1,0,1,0.5,0.5,0.2\n")


@pytest.mark.parametrize(
    "schema, name",
    [(ColumnMap(mediators=("m1", "m1")), "m1"), (ColumnMap(covariates=("x1", "x1")), "x1")],
)
def test_a_column_taken_twice_is_refused(schema, name):
    """A dataset with a repeated name would save a header that no load accepts."""
    with pytest.raises(DataError, match=f"duplicate column names: {name}$"):
        load_four_arm(b"y,aY,aM,m1,x1\n1,0,1,0.5,0.2\n2,1,0,0.4,0.3\n", schema)


def test_datasets_refuse_repeated_names():
    ds = generate_dataset(SimConfig(n=100, reps=1), 0)
    with pytest.raises(DataError, match="duplicate column names: x1$"):
        FourArmDataset(y=ds.y, a_y=ds.a_y, a_m=ds.a_m, m=ds.m, x=ds.x, outcome_name="x1")
    two = restrict_to_two_arm(ds)
    with pytest.raises(DataError, match="duplicate column names: m, x$"):
        TwoArmDataset(
            y=two.y, a=two.a, m=two.m, x=two.x[:, :2],
            mediator_names=("m", "x"), covariate_names=("x", "m"),
        )


def test_load_empty_body():
    with pytest.raises(EmptyDataset):
        load_four_arm(b"y,aY,aM,m1,x1\n")


def test_load_treatment_must_be_binary():
    with pytest.raises(NonBinaryTreatment):
        load_four_arm(b"y,aY,aM,m1,x1\n1,0.5,1,0.5,0.2\n")
    # rows count from 1 with blank lines skipped, as in NonNumericCell
    with pytest.raises(NonBinaryTreatment, match="row 2 has 2.0$"):
        load_four_arm(b"y,aY,aM,m1,x1\n1,0,1,0.5,0.2\n\n2,1,2,0.5,0.2\n")


def test_prefix_discovery_and_explicit_lists():
    src = b"y,aY,aM,m1,m2,x1,other\n1,0,1,0.5,0.1,0.2,9\n2,1,0,0.4,0.2,0.3,9\n"
    ds = load_four_arm(src)
    assert ds.mediator_names == ("m1", "m2")
    assert ds.covariate_names == ("x1",)  # "other" ignored by prefix rule

    schema = ColumnMap(mediators=("m2",), covariates=("other", "x1"))
    ds2 = load_four_arm(src, schema)
    assert ds2.mediator_names == ("m2",)
    assert ds2.covariate_names == ("other", "x1")
    np.testing.assert_array_equal(ds2.x[:, 0], [9.0, 9.0])


def test_custom_column_names():
    src = b"out,t1,t2,med_a,cov_b\n1,0,1,0.5,0.2\n2,1,0,0.4,0.3\n"
    schema = ColumnMap(
        outcome="out", a_y="t1", a_m="t2",
        mediator_prefix="med_", covariate_prefix="cov_",
    )
    ds = load_four_arm(src, schema)
    assert ds.outcome_name == "out"
    assert ds.mediator_names == ("med_a",)
    assert ds.covariate_names == ("cov_b",)


def test_requires_mediator_and_covariate():
    with pytest.raises(DataError):
        load_four_arm(b"y,aY,aM,x1\n1,0,1,0.2\n")
    with pytest.raises(DataError):
        load_four_arm(b"y,aY,aM,m1\n1,0,1,0.2\n")


@pytest.mark.parametrize("shape", [(), (3, 2, 2)], ids=["0-d", "3-d"])
@pytest.mark.parametrize("field, name", [("m", "mediator block"), ("x", "covariate block")])
def test_a_block_that_is_neither_1d_nor_2d_is_refused(field, name, shape):
    """A 0-d block used to raise a bare IndexError, and a 3-d one passed."""
    columns = dict(y=np.zeros(3), a_y=[0, 1, 0], a_m=[1, 0, 1], m=np.zeros(3), x=np.zeros(3))
    columns[field] = np.zeros(shape)
    with pytest.raises(DataError, match=f"{name} must be 1-d or 2-d, got {len(shape)}-d"):
        FourArmDataset(**columns)


@pytest.mark.parametrize(
    "schema", [ColumnMap(mediators=()), ColumnMap(covariates=())],
    ids=["mediators", "covariates"],
)
def test_an_empty_explicit_column_list_is_a_missing_column(schema):
    with pytest.raises(MissingColumn, match="column list is empty"):
        load_four_arm(b"y,aY,aM,m1,x1\n1,0,1,0.5,0.2\n", schema)


def test_restrict_to_two_arm_keeps_source_rows():
    ds = make_four_arm(n=60, seed=9)
    two = restrict_to_two_arm(ds)
    agree = np.nonzero(ds.a_y == ds.a_m)[0]
    np.testing.assert_array_equal(two.source_rows, agree)
    np.testing.assert_array_equal(two.y, ds.y[agree])
    np.testing.assert_array_equal(two.a, ds.a_y[agree])
    assert two.a_name == ds.a_y_name


def test_restrict_to_two_arm_empty():
    ds = make_four_arm(n=12, seed=2)
    flipped = FourArmDataset(
        y=ds.y, a_y=ds.a_y, a_m=1.0 - ds.a_y, m=ds.m, x=ds.x,
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )
    with pytest.raises(EmptySubset):
        restrict_to_two_arm(flipped)


# --- the numpy fast path against the strict row parser -----------------------

def _load_outcome(load, source):
    """Arrays and names of a load, or the type and message of its error."""
    try:
        ds = load(source)
    except Exception as exc:  # the reference may raise csv.Error too
        return ("error", type(exc), str(exc))
    fields = ("y", "a_y", "a_m") if hasattr(ds, "a_y") else ("y", "a")
    arrays = tuple(
        (getattr(ds, f).dtype.str, getattr(ds, f).shape, getattr(ds, f).tobytes())
        for f in (*fields, "m", "x")
    )
    return ("ok", arrays, ds.column_names())


def assert_matches_row_parser(load, source_factory):
    """The loader agrees bit for bit with its row-parser fallback.

    ``source_factory`` builds a fresh source per call, since file objects
    are consumed by a load.
    """
    fast = _load_outcome(load, source_factory())
    with mock.patch.object(data_module, "_parse_body", return_value=None):
        reference = _load_outcome(load, source_factory())
    assert fast == reference


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.integers(-5, 5).map(str),
)
_ODD_CELLS = st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "1_0", "oops", "", '"1.5"', " 2.5 ",
     "\t-0.0 ", "1d5", "0x10", "+.5", "5.", "\xa03", "\u0663"]
)
_ODD_TREATMENTS = st.sampled_from(["1.0", " 0 ", "2", "0.5", "-1", "nan", "x", ""])
_BLANK_LINES = st.sampled_from(["", "   ", " , ", ",,", "\t"])


def _rarely(draw) -> bool:
    return draw(st.integers(0, 19)) == 0


@st.composite
def csv_texts(draw):
    """Mostly well-formed CSV text with rare odd cells, lines and endings."""
    design = draw(st.sampled_from(["four-arm", "two-arm"]))
    treatments = ["aY", "aM"] if design == "four-arm" else ["a"]
    extras = draw(st.lists(st.sampled_from(["z", "note"]), max_size=2, unique=True))
    header = ["y", *treatments, "m1", "x1", *extras]
    lines = [(", " if _rarely(draw) else ",").join(header)]
    for _ in range(draw(st.integers(0, 4))):
        if _rarely(draw):
            lines.append(draw(_BLANK_LINES))
            continue
        cells = []
        for name in header:
            if name in treatments:
                odd, plain = _ODD_TREATMENTS, st.sampled_from(["0", "1"])
            elif name == "note":
                odd, plain = _NUMBERS, st.just("memo")
            else:
                odd, plain = _ODD_CELLS, _NUMBERS
            cells.append(draw(odd if _rarely(draw) else plain))
        if _rarely(draw):
            cells.append(draw(_NUMBERS))
        elif _rarely(draw):
            cells.pop()
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = ["\r" if _rarely(draw) else end for _ in lines]
    text = "".join(line + e for line, e in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final line ending
    return design, text


@settings(max_examples=300, deadline=None)
@given(csv_texts(), st.sampled_from(["bytes", "file"]))
def test_fast_loader_matches_row_parser(case, kind):
    design, text = case
    load = load_four_arm if design == "four-arm" else load_two_arm
    if kind == "bytes":
        assert_matches_row_parser(load, lambda: text.encode("utf-8"))
    else:
        assert_matches_row_parser(load, lambda: io.StringIO(text))


LOADER_EXAMPLES = [
    # rows numpy accepts when given usecols: one extra, one missing field
    "y,aY,aM,m1,x1\n1,0,1,0.5,0.2,9\n",
    "y,aY,aM,m1,x1\n1,0,1,0.5,0.2\n2,1,0,0.1\n",
    "y,aY,aM,m1,x1\r\n1,0,1,0.5,0.2\r\n\r\n2 , 1 ,0, 0.1,0.3\r\n",
    "y,aY,aM,m1,x1\n1,0,1,0.5,0.2\n   \n,,,,\n2,1,0,0.1,0.3",
    "y,aY,aM,m1,x1,z\n1,0,1,0.5,0.2,nan\n",
    "y,aY,aM,m1,x1,note\n1,0,1,0.5,0.2,hello\n",
    '"y",aY,aM,m1,x1\n"1",0,1,0.5,0.2\n',
    "y,aY,aM,m1,x1\n1_0,0,1,0.5,0.2\n",
    "y,aY,aM,m1,x1\n1,0,2,0.5,0.2\n3,0,1,oops,0.2\n",
    "y,aY,aM,m1,x1\n1,0,1,0.5,0.2\r2,1,0,0.1,0.3\n",
    "y,aY,aM,m1,x1\n1,0,1,0.5,0.2,7\n2,1,0,0.1,0.3,8\n",
    "y,aY,aM,m1,x1\n\n\n",
    "",
]


@pytest.mark.parametrize("text", LOADER_EXAMPLES)
def test_fast_loader_matches_row_parser_examples(text, tmp_path):
    assert_matches_row_parser(load_four_arm, lambda: text.encode("utf-8"))
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_matches_row_parser(load_four_arm, lambda: path)


def test_ragged_rows_keep_their_line_number():
    with pytest.raises(DataError, match=r"line 2: expected 5 fields, found 6"):
        load_four_arm(b"y,aY,aM,m1,x1\n1,0,1,0.5,0.2,9\n")
    with pytest.raises(DataError, match=r"line 3: expected 5 fields, found 4"):
        load_four_arm(b"y,aY,aM,m1,x1\n1,0,1,0.5,0.2\n2,1,0,0.1\n")


def test_ragged_row_after_a_quoted_line_break_names_its_own_line():
    """A quoted field that spans two lines is one record on lines 2-3, so
    the short row after it is on line 4, not the third record's line 3."""
    with pytest.raises(DataError, match=r"^line 4: expected 5 fields, found 3$"):
        load_four_arm(b'y,aY,aM,m1,x1\n"1\n",0,1,0.5,0.2\n1,0,1\n')


def test_saved_csv_takes_the_fast_path(tmp_path):
    ds = make_four_arm(n=30, seed=8)
    path = tmp_path / "d4.csv"
    save_four_arm(ds, path)
    with mock.patch.object(
        data_module, "_read_rows", side_effect=AssertionError("row parser used")
    ):
        back = load_four_arm(path)
    np.testing.assert_array_equal(back.m, ds.m)


def _row_writer_csv(ds, treatments) -> str:
    """Reference CSV text: one ``csv.writer`` row per record."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(ds.column_names())
    for i in range(ds.n):
        writer.writerow(
            [
                repr(float(ds.y[i])),
                *(str(int(t[i])) for t in treatments),
                *(repr(float(v)) for v in ds.m[i]),
                *(repr(float(v)) for v in ds.x[i]),
            ]
        )
    return buf.getvalue()


def test_save_matches_row_writer():
    four = generate_dataset(SimConfig(n=300, master_seed=4, reps=1), 0)
    buf = io.StringIO()
    save_four_arm(four, buf)
    assert buf.getvalue() == _row_writer_csv(four, (four.a_y, four.a_m))
    two = restrict_to_two_arm(four)
    buf = io.StringIO()
    save_two_arm(two, buf)
    assert buf.getvalue() == _row_writer_csv(two, (two.a,))


def test_bad_row_before_a_late_decode_error_is_reported(tmp_path):
    """The file is decoded whole before any row is read, so invalid UTF-8
    far down the file is reported, with its line, before an earlier bad
    row."""
    good = b"1,0,1,0.5,0.2\r\n" * 2000
    path = tmp_path / "d.csv"
    path.write_bytes(b"y,aY,aM,m1,x1\r\n1,0,1,0.5\r\n" + good + b"\xff\r\n")
    with pytest.raises(DataError, match="input is not valid UTF-8 at line 2003: "):
        load_four_arm(path)
    path.write_bytes(b"y,aY,aM,m1,x1\r\n" + good + b"\xff\r\n")
    with pytest.raises(DataError, match="input is not valid UTF-8 at line 2002: "):
        load_four_arm(path)


def test_a_text_stream_is_kept_as_joined_blocks():
    """At n = 50 000 a load from a text stream made beforehand keeps the
    stream as one string per row block and the lines' lengths, so its peak
    allocation stays under 3.5 times the arrays; one string per line took
    3.97 times."""
    ds = generate_dataset(SimConfig(n=50_000, master_seed=2, reps=1), 0)
    buf = io.StringIO()
    save_four_arm(ds, buf)
    stream = io.StringIO(buf.getvalue(), newline="")
    del buf
    assert _peak_over_array_bytes(ds, lambda: load_four_arm(stream)) <= 3.5


class _OnePass(list):
    """Lines that may be iterated once, as a stream is read."""

    def __iter__(self):
        assert not getattr(self, "read", False), "the lines were read again"
        self.read = True
        return super().__iter__()


def test_a_list_of_lines_is_read_in_one_pass(monkeypatch):
    """An iterable of lines that is not an iterator loads as its text does,
    across row blocks and with an empty line and a byte-order mark."""
    monkeypatch.setattr(data_module, "CSV_BLOCK_ROWS", 2)
    lines = ["\ufeffy,aY,aM,m1,x1\n", "", "1,0,1,0.5,0.2\n", "2,1,0,0.1,0.3\n", "3,1,1,0.7,0.4\n"]
    got = load_four_arm(_OnePass(lines))
    want = load_four_arm("".join(lines).encode("utf-8"))
    for field in ("y", "a_y", "a_m", "m", "x"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert got.column_names() == want.column_names()


def _source(kind: str, text: bytes, path):
    """``text`` as bytes, as a file at ``path``, or as a text stream."""
    if kind == "file":
        path.write_bytes(text)
        return path
    if kind == "stream":
        return io.TextIOWrapper(io.BytesIO(text), encoding="utf-8", newline="")
    return text


@pytest.mark.parametrize("kind", ["bytes", "file", "stream"])
@pytest.mark.parametrize("gap", [0, 100, 1000, 2 * data_module.CSV_BLOCK_ROWS + 5, 70_000])
def test_bad_row_before_invalid_utf8_wins_whatever_the_gap(gap, kind, tmp_path):
    """Invalid UTF-8 is reported before a bad row earlier in the input, for
    every kind of source and however many good rows (less or more than a
    text decoder's chunk, two row blocks or the 1 MB chunk of the UTF-8
    check) separate the short row from the invalid byte.  Bytes and files
    name the invalid byte's line and position; a stream names neither, as
    its decoder's position is one inside its current chunk."""
    text = (
        b"y,aY,aM,m1,x1\r\n1,0,1,0.5\r\n"
        + b"1,0,1,0.5,0.2\r\n" * gap
        + b"\xff\r\n"
    )
    where = "" if kind == "stream" else f" at line {gap + 3}"
    with pytest.raises(DataError, match=f"^input is not valid UTF-8{where}: ") as exc:
        load_four_arm(_source(kind, text, tmp_path / "d.csv"))
    assert ("position" in str(exc.value)) == (kind != "stream")


@pytest.mark.parametrize("kind", ["bytes", "file"])
def test_lone_carriage_returns_end_lines_in_bytes_and_files(kind, tmp_path):
    """Bytes split lines as files do, on a lone \\r too, also when counting
    the line of an invalid byte."""
    text = b"y,aY,aM,m1,x1\r1.0,1,0,0.5,1\r2.0,0,1,0.25,0\r"
    bad = b"y,aY,aM,m1,x1\r1,0,1,0.5\r\xff\r"
    ds = load_four_arm(_source(kind, text, tmp_path / "good.csv"))
    np.testing.assert_array_equal(ds.y, [1.0, 2.0])
    np.testing.assert_array_equal(ds.x[:, 0], [1.0, 0.0])
    with pytest.raises(DataError, match="input is not valid UTF-8 at line 3: "):
        load_four_arm(_source(kind, bad, tmp_path / "bad.csv"))


@pytest.mark.parametrize("kind", ["bytes", "file", "stream"])
def test_a_leading_byte_order_mark_is_dropped(kind, tmp_path):
    """Spreadsheet programs start a "CSV UTF-8" export with U+FEFF; the
    mark is not part of the first column name."""
    text = "\ufeffy,aY,aM,m1,x1\r\n1,0,1,0.5,0.2\r\n2,1,0,0.1,0.3\r\n".encode("utf-8")
    ds = load_four_arm(_source(kind, text, tmp_path / "d.csv"))
    assert ds.column_names() == ("y", "aY", "aM", "m1", "x1")
    np.testing.assert_array_equal(ds.y, [1.0, 2.0])


OVERLONG_FIELDS = {
    "row": ("y,aY,aM,m1,x1\n1,0,1,0.5,{a}\n", 2),
    "quoted": ('y,aY,aM,m1,x1\n1,0,1,0.5,0.2\n1,0,1,0.5,"{1}"\n', 3),
    "header": ("y,aY,aM,m1,x{1}\n1,0,1,0.5,0.2\n", 1),
}


@pytest.mark.parametrize(
    "template, line", list(OVERLONG_FIELDS.values()), ids=list(OVERLONG_FIELDS)
)
def test_overlong_field_is_a_data_error(template, line, tmp_path):
    """A field over the csv module's size limit is reported with its line,
    as a DataError, not as a bare csv.Error."""
    text = template.replace("{a}", "a" * 200_000).replace("{1}", "1" * 200_000)
    text = text.encode("utf-8")
    path = tmp_path / "d.csv"
    path.write_bytes(text)
    message = f"^line {line}: field larger than field limit"
    for source in (text, path):
        with pytest.raises(DataError, match=message):
            load_four_arm(source)


def test_invalid_utf8_is_a_data_error(tmp_path):
    text = b"y,aY,aM,m1,x1\n1,0,1,0.5,0.2\n2,1,0,\xff,0.3\n"
    path = tmp_path / "d.csv"
    path.write_bytes(text)
    with open(path, encoding="utf-8", newline="") as stream:
        for source in (text, path, stream):
            with pytest.raises(DataError, match="input is not valid UTF-8"):
                load_four_arm(source)


@pytest.mark.parametrize(
    "load, schema",
    [
        (load_four_arm, ColumnMap(covariates=("y", "x1"))),
        (load_four_arm, ColumnMap(covariates=("x1", "aM"))),
        (load_four_arm, ColumnMap(mediators=("aY",))),
        (load_two_arm, ColumnMap(mediators=("m1", "a"))),
        (load_two_arm, ColumnMap(covariates=("y",))),
    ],
)
def test_explicit_columns_cannot_take_the_outcome_or_a_treatment(load, schema):
    src = b"y,aY,aM,a,m1,x1\n1,0,1,0,0.5,0.2\n2,1,0,1,0.4,0.3\n"
    with pytest.raises(DataError, match="is the outcome or a treatment"):
        load(src, schema)


# --- row blocks: boundaries, sizes and memory ------------------------------

@pytest.mark.parametrize("rows", [1, 2])
def test_blocks_of_one_or_two_rows_change_no_load(rows, monkeypatch, tmp_path):
    """With a block boundary after every line or every second line, the
    loader still agrees with the row parser (the search and its examples)
    and keeps its line endings, byte-order mark, field limit and UTF-8
    checks."""
    monkeypatch.setattr(data_module, "CSV_BLOCK_ROWS", rows)
    test_fast_loader_matches_row_parser()
    for text in LOADER_EXAMPLES:
        test_fast_loader_matches_row_parser_examples(text, tmp_path)
    for kind in ("bytes", "file"):
        test_lone_carriage_returns_end_lines_in_bytes_and_files(kind, tmp_path)
    for kind in ("bytes", "file", "stream"):
        test_a_leading_byte_order_mark_is_dropped(kind, tmp_path)
    for template, line in OVERLONG_FIELDS.values():
        test_overlong_field_is_a_data_error(template, line, tmp_path)
    test_invalid_utf8_is_a_data_error(tmp_path)


@pytest.mark.parametrize("kind", ["bytes", "file", "stream"])
def test_files_of_several_blocks_save_and_load_exactly(kind, tmp_path):
    """Over several blocks and a partial last one, a save writes the text
    of one ``csv.writer`` row per record, and a load of that text gives
    back the arrays bit for bit."""
    n = 3 * data_module.CSV_BLOCK_ROWS + 7
    four = generate_dataset(SimConfig(n=n, master_seed=6, reps=1), 0)
    two = TwoArmDataset(y=four.y, a=four.a_m, m=four.m, x=four.x)
    for ds, save, load, treatments in [
        (four, save_four_arm, load_four_arm, (four.a_y, four.a_m)),
        (two, save_two_arm, load_two_arm, (two.a,)),
    ]:
        buf = io.StringIO()
        save(ds, buf)
        text = buf.getvalue()
        assert text == _row_writer_csv(ds, treatments)
        back = load(_source(kind, text.encode("utf-8"), tmp_path / "d.csv"))
        for field in ("y", *ds.treatment_fields, "m", "x"):
            assert getattr(back, field).tobytes() == getattr(ds, field).tobytes(), field


_LATE_FAULTS = [
    # (bad row, error type, message); the row lands after the first block
    ("1,0,1,0.5", DataError, "line {line}: expected 5 fields, found 4"),
    ("1,0,1,oops,0.2", NonNumericCell, "row {row}, column 'm1': cannot parse 'oops'"),
    ("1,0,2,0.5,0.2", NonBinaryTreatment,
     "column 'aM' must contain only 0/1; row {row} has 2.0"),
]


@pytest.mark.parametrize("kind", ["bytes", "file", "stream"])
@pytest.mark.parametrize("fault", range(len(_LATE_FAULTS)))
def test_a_fault_after_the_first_block_is_reported_as_before(fault, kind, tmp_path):
    """A bad row after the first block sends the whole input to the row
    parser, or to the dataset's checks, with the error and message a
    whole-file parse gives; so does a non-UTF-8 byte there."""
    bad, error, message = _LATE_FAULTS[fault]
    good = data_module.CSV_BLOCK_ROWS + 5
    head = b"y,aY,aM,m1,x1\r\n" + b"1,0,1,0.5,0.2\r\n" * good
    text = head + bad.encode("utf-8") + b"\r\n" + b"2,1,0,0.1,0.3\r\n" * 3
    with pytest.raises(error) as exc:
        load_four_arm(_source(kind, text, tmp_path / "d.csv"))
    assert type(exc.value) is error
    assert str(exc.value) == message.format(line=good + 2, row=good + 1)
    where = "" if kind == "stream" else f" at line {good + 2}"
    with pytest.raises(DataError, match=f"^input is not valid UTF-8{where}: "):
        load_four_arm(_source(kind, head + b"1,0,1,\xff,0.2\r\n", tmp_path / "d.csv"))


def _peak_over_array_bytes(ds, call) -> float:
    """``call``'s traced peak allocation over ``ds``'s array bytes."""
    arrays = sum(getattr(ds, field).nbytes for field in ("y", *ds.treatment_fields, "m", "x"))
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / arrays
    finally:
        tracemalloc.stop()


def test_a_save_allocates_less_than_the_arrays(tmp_path):
    """At n = 50 000 a save to a path formats one block at a time, so its
    peak allocation stays under the dataset's array bytes."""
    ds = generate_dataset(SimConfig(n=50_000, master_seed=2, reps=1), 0)
    assert _peak_over_array_bytes(ds, lambda: save_four_arm(ds, tmp_path / "d.csv")) <= 1.0


def test_a_load_holds_no_whole_file_copy(tmp_path):
    """At n = 50 000 a load from a path or bytes allocates about two copies
    of the arrays (its columns, then the dataset's frozen copies), where a
    whole-file text or table would add more.  A text stream's lines are
    kept whole, so a load from one costs more, but no more than when the
    body was parsed as one table."""
    ds = generate_dataset(SimConfig(n=50_000, master_seed=2, reps=1), 0)
    path = tmp_path / "d.csv"
    save_four_arm(ds, path)
    text = path.read_bytes()
    assert _peak_over_array_bytes(ds, lambda: load_four_arm(path)) <= 2.75
    assert _peak_over_array_bytes(ds, lambda: load_four_arm(text)) <= 2.75
    stream = lambda: load_four_arm(io.StringIO(text.decode("utf-8"), newline=""))
    assert _peak_over_array_bytes(ds, stream) <= 8.95
