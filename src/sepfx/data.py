"""Dataset containers and CSV ingestion for four-arm and two-arm designs.

A four-arm dataset carries two binary treatment columns: one routed to the
outcome (``a_y``) and one routed to the mediators (``a_m``).  A two-arm
dataset carries a single binary treatment that plays both roles.  Both
types share one validate-and-freeze body; each names its treatment fields
in ``treatment_fields``, which also fixes the treatment columns the loader
and writer use.  Loaders are strict: every cell must parse as a finite
number, treatments must be exactly 0 or 1, and missing values are
rejected rather than imputed.  A loader hands its parsed float columns
to the dataset type, whose body checks and casts each treatment once.
Both CSV directions work in blocks of ``CSV_BLOCK_ROWS`` rows, so neither
holds the whole text: a loader checks a path or byte string as UTF-8 in
chunks and parses the body block by block, a large file's body in forked
byte ranges, and any block outside the plain case sends the whole input
to the strict row parser.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import os
import warnings
from array import array
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (
    DataError,
    EmptyDataset,
    EmptySubset,
    MissingColumn,
    NonBinaryTreatment,
    NonNumericCell,
)
from .estimation import EstimatorConfig
from .fanout import fan_out, processes

CSV_BLOCK_ROWS = 4096  # rows per block read or written; a block's text stays in cache
# body bytes per parsing process: on 2 cores, two processes first parsed a
# simulated CSV in a fresh CLI process faster than one at 3 to 5 MB of body
RANGE_BYTES = 3 << 20


@dataclass(frozen=True)
class ColumnMap:
    """Mapping from logical roles to CSV column names.

    Mediator and covariate columns are discovered by prefix unless explicit
    name lists are given.  Prefix discovery skips the named special columns,
    so a treatment column called ``aM`` is never mistaken for a mediator;
    an explicit list that names one is refused.
    """

    outcome: str = "y"
    a_y: str = "aY"
    a_m: str = "aM"
    a: str = "a"
    mediator_prefix: str = "m"
    covariate_prefix: str = "x"
    mediators: tuple[str, ...] | None = None
    covariates: tuple[str, ...] | None = None

    def special_names(self, design: str) -> tuple[str, ...]:
        """Outcome and treatment columns; roles match the treatment fields."""
        fields = _DESIGNS[design].treatment_fields
        return (self.outcome, *(getattr(self, field) for field in fields))


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _check_binary(values: np.ndarray, name: str) -> np.ndarray:
    bad = ~np.isin(values, (0, 1))
    if bad.any():
        idx = int(np.nonzero(bad)[0][0])
        raise NonBinaryTreatment(
            f"column {name!r} must contain only 0/1; "
            f"row {idx + 1} has {values.item(idx)!r}"
        )
    return values.astype(np.int64)


def _check_matrix(arr: np.ndarray, name: str, n: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise DataError(f"{name} must be 1-d or 2-d, got {arr.ndim}-d")
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape[0] != n:
        raise DataError(f"{name} has {arr.shape[0]} rows, expected {n}")
    if not np.isfinite(arr).all():
        raise NonNumericCell(f"{name} contains non-finite values")
    return arr


def _default_names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{j + 1}" for j in range(count))


class _Dataset:
    """Validate-and-freeze body of both dataset types.  Each treatment
    field ``f`` in ``treatment_fields`` has its column name in ``f_name``."""

    treatment_fields: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64).ravel()
        n = y.shape[0]
        if n == 0:
            raise EmptyDataset("dataset has no rows")
        if not np.isfinite(y).all():
            raise NonNumericCell("outcome contains non-finite values")
        arms = {
            field: _check_binary(
                np.asarray(getattr(self, field)).ravel(), getattr(self, f"{field}_name")
            )
            for field in self.treatment_fields
        }
        if any(arm.shape[0] != n for arm in arms.values()):
            raise DataError("treatment columns must match outcome length")
        m = _check_matrix(self.m, "mediator block", n)
        x = _check_matrix(self.x, "covariate block", n)
        med_names = self.mediator_names or _default_names("m", m.shape[1])
        cov_names = self.covariate_names or _default_names("x", x.shape[1])
        if len(med_names) != m.shape[1] or len(cov_names) != x.shape[1]:
            raise DataError("column name lists must match matrix widths")
        for field, value in {"y": y, **arms, "m": m, "x": x}.items():
            object.__setattr__(self, field, _freeze(value))
        object.__setattr__(self, "mediator_names", tuple(med_names))
        object.__setattr__(self, "covariate_names", tuple(cov_names))
        names = self.column_names()
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise DataError(f"duplicate column names: {', '.join(repeated)}")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_mediators(self) -> int:
        return self.m.shape[1]

    def column_names(self) -> tuple[str, ...]:
        """CSV column order: outcome, treatments, mediators, covariates."""
        return (
            self.outcome_name,
            *(getattr(self, f"{field}_name") for field in self.treatment_fields),
            *self.mediator_names,
            *self.covariate_names,
        )


@dataclass(frozen=True)
class FourArmDataset(_Dataset):
    """Immutable four-arm dataset with separate outcome/mediator treatments."""

    y: np.ndarray
    a_y: np.ndarray
    a_m: np.ndarray
    m: np.ndarray
    x: np.ndarray
    outcome_name: str = "y"
    a_y_name: str = "aY"
    a_m_name: str = "aM"
    mediator_names: tuple[str, ...] = ()
    covariate_names: tuple[str, ...] = ()

    treatment_fields: ClassVar[tuple[str, ...]] = ("a_y", "a_m")


@dataclass(frozen=True)
class TwoArmDataset(_Dataset):
    """Immutable two-arm dataset: one treatment feeds outcome and mediators.

    ``source_rows``, when given, holds each row's index in the four-arm
    dataset it was restricted from.
    """

    y: np.ndarray
    a: np.ndarray
    m: np.ndarray
    x: np.ndarray
    outcome_name: str = "y"
    a_name: str = "a"
    mediator_names: tuple[str, ...] = ()
    covariate_names: tuple[str, ...] = ()
    source_rows: np.ndarray | None = None

    treatment_fields: ClassVar[tuple[str, ...]] = ("a",)

    def __post_init__(self):
        super().__post_init__()
        if self.source_rows is not None:
            rows = np.asarray(self.source_rows, dtype=np.int64).ravel()
            if rows.shape[0] != self.n:
                raise DataError("source_rows must match dataset length")
            object.__setattr__(self, "source_rows", _freeze(rows))


@contextmanager
def _source_lines(source):
    """Validate a CSV source whole, then yield a function that gives its
    lines from the start, split exactly as ``csv.reader`` sees them.

    Input that is not valid UTF-8 is refused before any row is read (or
    while it is read, if a file changed after its check): a
    :class:`DataError` names the line of the invalid byte for bytes and
    paths, which are checked in 1 MB chunks that are not kept, and no line
    for a text stream, which is read whole and kept, ``CSV_BLOCK_ROWS``
    lines joined into each string, with every line's length to cut them
    apart again.  One leading byte-order mark (U+FEFF), as spreadsheet
    programs write, is dropped.
    """
    try:
        if not isinstance(source, (bytes, bytearray, str, Path)):
            texts, lengths, stream = [], array("q"), iter(source)
            while block := list(itertools.islice(stream, CSV_BLOCK_ROWS)):
                if not texts:
                    block[0] = block[0].removeprefix("\ufeff")
                lengths.extend(map(len, block))
                texts.append("".join(block))

            def lines():
                ends = iter(lengths)
                for text in texts:
                    start = 0
                    for length in itertools.islice(ends, CSV_BLOCK_ROWS):
                        yield text[start : start + length]
                        start += length

            yield lines
            return
        with open(source, "rb") if isinstance(source, (str, Path)) else io.BytesIO(source) as raw:
            decoder = codecs.getincrementaldecoder("utf-8")()
            while chunk := raw.read(1 << 20):
                decoder.decode(chunk)
            decoder.decode(b"", final=True)
            # "utf-8-sig" drops the mark again after each seek to the start
            with io.TextIOWrapper(raw, encoding="utf-8-sig", newline="") as text:

                def lines():
                    text.seek(0)
                    return text

                yield lines
    except UnicodeDecodeError as exc:
        raise _not_utf8(source, exc) from exc


def _not_utf8(source, error: UnicodeDecodeError) -> DataError:
    """The error for input that fails to decode.  A file's decoder reads in
    chunks, so its offset is found again in the file's bytes."""
    if not isinstance(source, (bytes, bytearray, str, Path)):
        # a stream's position is one inside its decoder's chunk, so none is given
        byte = error.object[error.start]
        return DataError(f"input is not valid UTF-8: byte 0x{byte:02x}: {error.reason}")
    raw = Path(source).read_bytes() if isinstance(source, (str, Path)) else source
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as whole:
        error = whole
    # the prefix is valid UTF-8 unless the file changed between the reads
    before = raw[: error.start].decode("utf-8", errors="replace")
    # lines end at \n, \r\n or a lone \r, as csv.reader splits them
    line = 1 + before.count("\n") + before.count("\r") - before.count("\r\n")
    return DataError(f"input is not valid UTF-8 at line {line}: {error}")


def _read_header(reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset("input has no header row") from None
    header = [name.strip() for name in header]
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")
    return header


def _read_rows(reader, header: list[str]) -> list[list[str]]:
    rows = []
    for row in reader:
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(header):
            raise DataError(  # the row's last line, as a quoted field may span lines
                f"line {reader.line_num}: expected {len(header)} fields, found {len(row)}"
            )
        rows.append([cell.strip() for cell in row])
    if not rows:
        raise EmptyDataset("input has a header but no data rows")
    return rows


def _parse_column(rows: list[list[str]], header: list[str], name: str) -> np.ndarray:
    col = header.index(name)
    out = np.empty(len(rows), dtype=np.float64)
    for i, row in enumerate(rows):
        cell = row[col]
        try:
            if "_" in cell or not cell.isascii():  # float() reads 1_5 and non-ASCII digits
                raise ValueError
            value = float(cell)
        except ValueError:
            raise NonNumericCell(
                f"row {i + 1}, column {name!r}: cannot parse {cell!r}"
            ) from None
        if not np.isfinite(value):
            raise NonNumericCell(
                f"row {i + 1}, column {name!r}: non-finite value {cell!r}"
            )
        out[i] = value
    return out


def _parse_body(lines: list[str], width: int) -> np.ndarray | None:
    """Parse one block of data lines in one numpy call, or return None.

    None means the lines are outside the plain case the strict row parser
    would accept unchanged (a quoted, empty or otherwise unparsable cell, a
    ragged or whitespace-only row, a non-finite value or a width other than
    the header's); the whole input then goes to the row parser.  Blank lines
    give no rows.  ``usecols`` is deliberately not passed: with it numpy
    accepts rows with extra or missing trailing fields.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data"
            table = np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[0] == 0:
        return table.reshape(0, width)
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


_DESIGNS = {"four-arm": FourArmDataset, "two-arm": TwoArmDataset}


def _resolve_columns(
    header: list[str], schema: ColumnMap, design: str
) -> tuple[list[str], list[str]]:
    special = schema.special_names(design)
    for name in special:
        if name not in header:
            raise MissingColumn(f"required column {name!r} not found in header")

    def discover(prefix: str, explicit: tuple[str, ...] | None, role: str) -> list[str]:
        if explicit is not None:
            if not explicit:
                raise MissingColumn(f"the explicit {role} column list is empty")
            for name in explicit:
                if name not in header:
                    raise MissingColumn(f"{role} column {name!r} not found in header")
                if name in special:
                    raise DataError(
                        f"{role} column {name!r} is the outcome or a treatment"
                    )
            return list(explicit)
        found = [c for c in header if c.startswith(prefix) and c not in special]
        if not found:
            raise MissingColumn(
                f"no {role} columns found (prefix {prefix!r}); "
                f"pass explicit names to override"
            )
        return found

    mediators = discover(schema.mediator_prefix, schema.mediators, "mediator")
    covariates = discover(schema.covariate_prefix, schema.covariates, "covariate")
    overlap = set(mediators) & set(covariates)
    if overlap:
        raise DataError(f"columns claimed as both mediator and covariate: {sorted(overlap)}")
    return mediators, covariates


def _load(source, schema: ColumnMap | None, design: str, threads) -> FourArmDataset | TwoArmDataset:
    EstimatorConfig(threads=threads)  # the estimators' rule for a process count
    schema = schema or ColumnMap()
    outcome, *treatments = schema.special_names(design)
    parsed = isinstance(source, (str, Path)) and _read_ranges(source, schema, design, threads)
    if not parsed:
        with _source_lines(source) as lines:
            parsed = _read_blocks(lines(), schema, design) or _read_strict(lines(), schema, design)
    mediators, covariates, (y, *arms, m, x) = parsed
    dataset = _DESIGNS[design]
    fields = dataset.treatment_fields
    return dataset(
        y=y, m=m, x=x, outcome_name=outcome,
        mediator_names=tuple(mediators), covariate_names=tuple(covariates),
        **dict(zip(fields, arms)),
        **{f"{field}_name": name for field, name in zip(fields, treatments)},
    )


def _read_blocks(lines: Iterator[str], schema: ColumnMap, design: str, ranges=None):
    """The columns of a plain CSV, parsed ``CSV_BLOCK_ROWS`` lines at a time
    from the rest of ``lines`` or from each range ``ranges`` maps the parse
    over; None for a header, block or body the strict row parser must judge
    (it reports a missing column only after checking every row)."""
    reader = csv.reader(lines)
    try:
        header = _read_header(reader)
        mediators, covariates = _resolve_columns(header, schema, design)
    except (csv.Error, DataError):
        return None
    cols = [header.index(name) for name in schema.special_names(design)]
    cols += [[header.index(name) for name in group] for group in (mediators, covariates)]

    def parse(lines) -> list | None:
        blocks = [[] for _ in cols]
        while block := list(itertools.islice(lines, CSV_BLOCK_ROWS)):
            table = _parse_body(block, len(header))
            if table is None:
                return None
            for j, parts in zip(cols, blocks):
                parts.append(np.take(table, j, axis=1))
        return blocks

    shares = ranges(parse) if ranges else [parse(lines)]
    if None in shares:
        return None
    blocks = [list(itertools.chain(*parts)) for parts in zip(*shares)]
    del shares
    if not any(map(len, blocks[0])):
        return None
    # popped, so that each column's blocks are freed once it is joined
    return mediators, covariates, [np.concatenate(blocks.pop(0)) for _ in cols]


def _range_lines(raw, size: int) -> Iterator[str]:
    """The lines in the next ``size`` bytes of a binary file, which end at
    a line end, read a chunk at a time and split as ``csv.reader`` splits
    them, each chunk completed to its line's ``\\n``."""
    while size > 0:
        chunk = raw.read(min(size, 1 << 18))
        chunk += raw.readline() if len(chunk) < size else b""
        size -= len(chunk)
        yield from (line.decode("utf-8") for line in chunk.splitlines(keepends=True))


def _read_ranges(path, schema: ColumnMap, design: str, threads: int | None):
    """:func:`_read_blocks` of a file whose body holds several ``RANGE_BYTES``,
    cut at line ends into one range per process, which streams its own; also
    None for a smaller body, a quoted or non-ASCII header, or a range that is
    not UTF-8 (the row parser names the line)."""
    with open(path, "rb") as raw:
        head = raw.readline().removeprefix(codecs.BOM_UTF8)
        cuts, end = [raw.tell()], os.fstat(raw.fileno()).st_size
        w = processes((end - cuts[0]) // RANGE_BYTES, threads)
        if w == 1 or b'"' in head or not head.isascii():  # a quote may span lines
            return None
        for share in range(1, w):
            raw.seek(cuts[0] + (end - cuts[0]) * share // w - 1)
            raw.readline()
            cuts.append(raw.tell())
    cuts.append(end)

    def ranges(parse) -> list:
        def parse_range(share: int) -> list | None:
            with open(path, "rb") as raw:
                raw.seek(cuts[share])
                try:
                    blocks = parse(_range_lines(raw, cuts[share + 1] - cuts[share]))
                except UnicodeDecodeError:
                    return None
            return blocks

        return fan_out(parse_range, w, w)

    return _read_blocks([head.decode()], schema, design, ranges)


def _read_strict(lines: Iterator[str], schema: ColumnMap, design: str):
    """The columns of any CSV the loader accepts, read row by row, with
    the loader's errors in the order it reports them."""
    reader = csv.reader(lines)
    try:
        header = _read_header(reader)
        rows = _read_rows(reader, header)
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None
    mediators, covariates = _resolve_columns(header, schema, design)
    columns = [_parse_column(rows, header, name) for name in schema.special_names(design)]
    for group in (mediators, covariates):
        columns.append(np.column_stack([_parse_column(rows, header, c) for c in group]))
    return mediators, covariates, columns


def load_four_arm(source, schema: ColumnMap | None = None, *, threads=None) -> FourArmDataset:
    """Load a four-arm dataset from a CSV path, byte string, or file object.

    Parameters
    ----------
    source:
        Path, UTF-8 byte string, or text file object positioned at a header
        row.
    schema:
        Column mapping; defaults expect ``y``, ``aY``, ``aM``, mediator
        columns starting with ``m`` and covariate columns starting with
        ``x``.
    threads:
        Processes that may parse a path's body, as ``EstimatorConfig.threads``
        (every usable CPU if ``None``); the arrays and errors are those of one.

    Raises
    ------
    MissingColumn, NonBinaryTreatment, NonNumericCell, EmptyDataset
    """
    return _load(source, schema, "four-arm", threads)


def load_two_arm(source, schema: ColumnMap | None = None, *, threads=None) -> TwoArmDataset:
    """Load a two-arm dataset; same contract as :func:`load_four_arm`."""
    return _load(source, schema, "two-arm", threads)


def _save(ds: FourArmDataset | TwoArmDataset, target) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            _save(ds, handle)
        return
    csv.writer(target).writerow(ds.column_names())
    columns = [ds.y, *(getattr(ds, field) for field in ds.treatment_fields), *ds.m.T, *ds.x.T]
    for lo in range(0, ds.n, CSV_BLOCK_ROWS):
        # repr of a Python float is the shortest string that round-trips
        # exactly; of a treatment, an int, its digits
        cells = (map(repr, col[lo : lo + CSV_BLOCK_ROWS].tolist()) for col in columns)
        target.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def save_four_arm(ds: FourArmDataset, target) -> None:
    """Write a four-arm dataset as CSV; values round-trip bit-exactly."""
    _save(ds, target)


def save_two_arm(ds: TwoArmDataset, target) -> None:
    """Write a two-arm dataset as CSV; values round-trip bit-exactly."""
    _save(ds, target)


def restrict_to_two_arm(ds: FourArmDataset) -> TwoArmDataset:
    """Keep the rows whose two treatments agree, collapsing them to one arm.

    The returned dataset records the original row indices in
    ``source_rows`` so per-row quantities can be mapped back to the
    four-arm sample.

    Raises
    ------
    EmptySubset
        If no row has matching treatment assignments.
    """
    keep = np.nonzero(ds.a_y == ds.a_m)[0]
    if keep.size == 0:
        raise EmptySubset("no rows with matching treatment assignments")
    return TwoArmDataset(
        y=ds.y[keep],
        a=ds.a_y[keep],
        m=ds.m[keep],
        x=ds.x[keep],
        outcome_name=ds.outcome_name,
        a_name=ds.a_y_name,
        mediator_names=ds.mediator_names,
        covariate_names=ds.covariate_names,
        source_rows=keep,
    )
