import csv
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from confound_lens import (Dataset, EmptyAfterFilteringError, ParseError,
                           ingest_csv, ingest_csv_stratified)
from confound_lens import ingest
from confound_lens.cli import main
from confound_lens.ingest import dataset_to_csv

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "nhanes_synthetic.csv"


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestNumericIngestion:
    def test_three_row_file(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        data = ingest_csv(path)
        assert data.n == 3
        assert data.names == ("a", "b")
        assert data.column("b").tolist() == [2.0, 4.0, 6.0]

    def test_accepts_stream(self):
        data = ingest_csv(io.StringIO("x\n1.5\n2.5\n"))
        assert data.column("x").tolist() == [1.5, 2.5]

    def test_scientific_notation_and_negatives(self, tmp_path):
        path = _write(tmp_path, "x\n-1e-3\n2.5E2\n")
        assert ingest_csv(path).column("x").tolist() == [-0.001, 250.0]

    def test_missing_cell_drops_row_with_counted_warning(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n,4\n5,6\n")
        with pytest.warns(UserWarning, match="dropped 1 row"):
            data = ingest_csv(path)
        assert data.n == 2
        assert data.column("a").tolist() == [1.0, 5.0]

    def test_nonfinite_numerics_count_as_missing(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\nnan,4\n5,inf\n")
        with pytest.warns(UserWarning, match="dropped 2 row"):
            data = ingest_csv(path)
        assert data.n == 1

    def test_empty_after_filtering(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,\n,2\n")
        with pytest.warns(UserWarning):
            with pytest.raises(EmptyAfterFilteringError):
                ingest_csv(path)

    def test_no_data_rows(self, tmp_path):
        path = _write(tmp_path, "a,b\n")
        with pytest.raises(EmptyAfterFilteringError):
            ingest_csv(path)


class TestParseErrors:
    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_csv(_write(tmp_path, ""))

    def test_ragged_row_reports_location(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 3"):
            ingest_csv(path)

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate"):
            ingest_csv(_write(tmp_path, "a,a\n1,2\n"))

    def test_empty_header_name(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_csv(_write(tmp_path, "a,\n1,2\n"))

    def test_row_numbers_count_blank_lines(self, tmp_path):
        path = _write(tmp_path, "a,b\n\n1,2\n\n3\n")
        with pytest.raises(ParseError, match=r"expected 2 fields, got 1 \(row 5\)"):
            ingest_csv(path)

    def test_header_row_number_counts_leading_blank_lines(self, tmp_path):
        with pytest.raises(ParseError, match=r"\(row 3\)"):
            ingest_csv(_write(tmp_path, "\n\na,\n1,2\n"))

    def test_blank_lines_are_skipped(self, tmp_path):
        data = ingest_csv(_write(tmp_path, "\na,b\n\n1,2\n\n\n3,4\n\n"))
        assert data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestByteOrderMark:
    def test_bom_file_first_column_is_named_cleanly(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("a,b\n1,2\n3,5\n4,4\n".encode("utf-8-sig"))
        assert ingest_csv(path).names == ("a", "b")
        assert dict(ingest_csv_stratified(path, "a"))["1"].names == ("b",)

    def test_bom_in_stream_is_stripped(self):
        data = ingest_csv(io.StringIO("\ufeffa,b\n1,2\n"))
        assert data.names == ("a", "b")

    def test_cli_outcome_named_by_first_column(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes("a,b\n1,2\n3,5\n4,4\n6,9\n".encode("utf-8-sig"))
        code = main(["fit", "--input", str(path), "--outcome", "a", "--exposure", "b",
                     "--format", "json", "--deterministic"])
        assert code == 0, capsys.readouterr().err

    def test_bom_then_blank_line_reads_alike_from_a_path_and_stdin(
            self, tmp_path, capsys, monkeypatch):
        # EDGE_CASES reads such a text through ingest_csv from a file and a stream
        text = "\ufeff\na,b\n1,2\n3,5\n4,4\n6,9\n"
        path = _write(tmp_path, text)
        argv = ["fit", "--outcome", "a", "--exposure", "b", "--format", "json",
                "--deterministic", "--input"]
        reports = []
        for source in (str(path), "-"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = main(argv + [source])
            out, err = capsys.readouterr()
            assert code == 0, err
            echoed = f'"input": {json.dumps(source)},'
            assert out.count(echoed) == 1
            reports.append(out.replace(echoed, '"input": "<input>",'))
        assert reports[0] == reports[1]


class TestCategoricalExpansion:
    def test_most_frequent_level_is_reference(self, tmp_path):
        path = _write(tmp_path,
                      "race,y\nWhite,1\nWhite,2\nWhite,3\nBlack,4\nOther,5\n")
        data = ingest_csv(path)
        assert data.names == ("race:Black", "race:Other", "y")
        assert data.column("race:Black").tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]
        assert data.column("race:Other").tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_frequency_tie_breaks_lexicographically(self, tmp_path):
        path = _write(tmp_path, "g,y\nb,1\nb,2\na,3\na,4\n")
        data = ingest_csv(path)
        # tie between 'a' and 'b': 'a' wins as reference
        assert data.names == ("g:b", "y")

    def test_mixed_column_is_categorical(self, tmp_path):
        path = _write(tmp_path, "v,y\n1.5,1\nxyz,2\n1.5,3\n")
        data = ingest_csv(path)
        assert data.names == ("v:xyz", "y")

    def test_single_level_column_vanishes(self, tmp_path):
        path = _write(tmp_path, "c,y\nonly,1\nonly,2\n")
        data = ingest_csv(path)
        assert data.names == ("y",)

    def test_missing_categorical_cell_drops_row(self, tmp_path):
        path = _write(tmp_path, "c,y\nred,1\n,2\nblue,3\nred,4\n")
        with pytest.warns(UserWarning, match="dropped 1 row"):
            data = ingest_csv(path)
        assert data.n == 3


class TestStratified:
    def test_splits_and_removes_stratum_column(self, tmp_path):
        path = _write(tmp_path,
                      "sex,x,y\nM,1,2\nF,3,4\nM,5,6\nF,7,8\nF,9,10\n")
        strata = ingest_csv_stratified(path, "sex")
        labels = [label for label, _ in strata]
        assert labels == ["F", "M"]
        by_label = dict(strata)
        assert by_label["M"].n == 2
        assert by_label["F"].n == 3
        assert "sex" not in by_label["M"].names

    def test_unknown_stratify_column(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,2\n")
        with pytest.raises(KeyError):
            ingest_csv_stratified(path, "sex")

    def test_missing_stratum_value_dropped(self, tmp_path):
        path = _write(tmp_path, "sex,x\nM,1\n,2\nF,3\n")
        with pytest.warns(UserWarning, match="missing 'sex'"):
            strata = ingest_csv_stratified(path, "sex")
        assert {label for label, _ in strata} == {"M", "F"}

    def test_expansion_is_per_stratum(self, tmp_path):
        # 'c' has levels {p, q} only inside stratum A
        path = _write(tmp_path,
                      "s,c,y\nA,p,1\nA,q,2\nA,p,3\nB,p,4\nB,p,5\n")
        by_label = dict(ingest_csv_stratified(path, "s"))
        assert "c:q" in by_label["A"].names
        assert by_label["B"].names == ("y",)

    def test_only_the_stratify_column_leaves_no_usable_columns(self, tmp_path):
        path = _write(tmp_path, "s\nA\nB\n")
        with pytest.raises(ParseError, match=r"\[s=A\]: no usable columns$"):
            ingest_csv_stratified(path, "s")

    def test_column_is_text_in_one_stratum_and_numeric_in_another(self, tmp_path):
        path = _write(tmp_path, "s,v,y\nA,1,1\nA,x,2\nA,1,3\nB,1,4\nB,2,5\n")
        by_label = dict(ingest_csv_stratified(path, "s"))
        assert by_label["A"].names == ("v:x", "y")
        assert by_label["A"].values.tolist() == [[0, 1], [1, 2], [0, 3]]
        assert by_label["B"].names == ("v", "y")
        assert by_label["B"].values.tolist() == [[1, 4], [2, 5]]


class TestFixture:
    def test_bundled_fixture_ingests(self):
        data = ingest_csv(FIXTURE)
        assert data.n == 800
        assert "poverty_index" in data.names
        assert "race:Black" in data.names and "race:Other" in data.names
        assert set(np.unique(data.column("smoker"))) == {0.0, 1.0}

    def test_round_trip_through_csv_writer(self, tmp_path):
        data = Dataset.from_columns({"x": [1.25, -2.5], "y": [0.1, 0.2]})
        buf = io.StringIO()
        dataset_to_csv(data, buf)
        again = ingest_csv(io.StringIO(buf.getvalue()))
        assert again.names == data.names
        assert np.array_equal(again.values, data.values)


# Each text with its outcome through a file path and through a stream: the
# names, rows and warnings of the dataset, or the error's class, message and
# row.  "{src}" stands for the source's name.
EDGE_CASES = {
    "quoted field holding a comma": (
        'g,y\n"a,b",1\nc,2\n', (("g:c", "y"), [[0, 1], [1, 2]], [])),
    "# in a cell": (
        "a,#b\n1,#x\n2,#x\n3,y\n", (("a", "#b:y"), [[1, 0], [2, 0], [3, 1]], [])),
    "CRLF line ends": (
        "a,b\r\n1,2\r\n3,4\r\n", (("a", "b"), [[1, 2], [3, 4]], [])),
    "BOM": (
        "\ufeffa,b\n1,2\n3,4\n", (("a", "b"), [[1, 2], [3, 4]], [])),
    "BOM then a blank line": (
        "\ufeff\na,b\n1,2\n3,4\n", (("a", "b"), [[1, 2], [3, 4]], [])),
    "two BOMs": (
        "\ufeff\ufeffa,b\n1,2\n3,4\n", (("\ufeffa", "b"), [[1, 2], [3, 4]], [])),
    "BOM after a blank line": (
        "\n\ufeffa,b\n1,2\n3,4\n", (("\ufeffa", "b"), [[1, 2], [3, 4]], [])),
    "leading blank line": (
        "\na,b\n1,2\n3,4\n", (("a", "b"), [[1, 2], [3, 4]], [])),
    "mid-file blank line": (
        "a,b\n1,2\n\n3,4\n", (("a", "b"), [[1, 2], [3, 4]], [])),
    "blank line in a one-column file": (
        "x\n1\n\n2\n", (("x",), [[1], [2]], [])),
    "whitespace-only line": (
        "a,b\n1,2\n \n3,4\n", (ParseError, "expected 2 fields, got 1 (row 3)", 3)),
    "whitespace-only line in a one-column file": (
        "x\n1\n \n2\n", (("x",), [[1], [2]], ["{src}: dropped 1 row(s) with missing values"])),
    "one field too many": (
        "a,b\n1,2\n3,4,5\n", (ParseError, "expected 2 fields, got 3 (row 3)", 3)),
    "one field too few": (
        "a,b\n1,2\n3\n", (ParseError, "expected 2 fields, got 1 (row 3)", 3)),
    "one field too many, then one too few": (
        "a,b\n1,2,3\n4\n5,6\n", (ParseError, "expected 2 fields, got 3 (row 2)", 2)),
    "no trailing newline": (
        "a,b\n1,2\n3,4", (("a", "b"), [[1, 2], [3, 4]], [])),
    "header only": (
        "a,b\n", (EmptyAfterFilteringError,
                  "{src}: no complete rows remain after dropping missing values", None)),
    "float spellings beyond ASCII digits": (
        "x,y\n1_000,1\n١٢,2\n\xa03,3\n",
        (("x", "y"), [[1000, 1], [12, 2], [3, 3]], [])),
    "non-finite values": (
        "x,y\nnan,1\ninf,2\n1e400,3\n4,4\n",
        (("x", "y"), [[4, 4]], ["{src}: dropped 3 row(s) with missing values"])),
    "line separators of str.splitlines inside cells": (
        "g,y\na\x85b,1\nc\u2028d,2\nc\u2028d,3\n",
        (("g:a\x85b", "y"), [[1, 1], [0, 2], [0, 3]], [])),
}


def _sources(tmp_path, text):
    """The text as a file path and as a stream, each with its name in messages."""
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    return [(path, str(path)), (io.StringIO(text), "<stream>")]


def _ingested(read):
    """(names, values bytes) or (error class, message, row), with the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = read()
        except (ParseError, EmptyAfterFilteringError) as exc:
            got = (type(exc), str(exc), getattr(exc, "row", None))
        else:
            got = (data.names, data.values.tobytes())
    return got, [str(w.message) for w in caught]


class TestEdgeCases:
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_file_and_stream(self, tmp_path, case):
        text, outcome = EDGE_CASES[case]
        for source, name in _sources(tmp_path, text):
            got, caught = _ingested(lambda: ingest_csv(source))
            if isinstance(outcome[0], tuple):
                names, rows, messages = outcome
                want = (names, np.array(rows, dtype=np.float64).tobytes())
            else:
                error, message, row = outcome
                want, messages = (error, message.format(src=name), row), []
            assert got == want
            assert caught == [m.format(src=name) for m in messages]

    def test_nul_reads_as_the_csv_module_does(self, tmp_path):
        text = "a,b\n1\x00,2\n3,4\n"
        try:
            list(csv.reader(io.StringIO(text)))
        except csv.Error as exc:  # Python 3.10 rejects NUL
            want = (ParseError, f"malformed CSV: {exc}", None)
        else:  # later versions keep it in the cell, which makes "a" categorical
            want = (("a:3.0", "b"), np.array([[0.0, 2.0], [1.0, 4.0]]).tobytes())
        for source, _ in _sources(tmp_path, text):
            assert _ingested(lambda: ingest_csv(source)) == (want, [])

    def test_field_over_the_csv_size_limit(self, tmp_path):
        limit = csv.field_size_limit(4)
        try:
            for source, _ in _sources(tmp_path, "a,b\n1234,1\n5,6\n"):
                assert ingest_csv(source).column("a").tolist() == [1234.0, 5.0]
            for source, _ in _sources(tmp_path, "a,b\n12345,1\n5,6\n"):
                with pytest.raises(ParseError,
                                   match=r"^malformed CSV: field larger than field limit \(4\)$"):
                    ingest_csv(source)
        finally:
            csv.field_size_limit(limit)

    BAD_BYTE = b"a,b\n" + b"1,2\n" * 3000 + b"\xff,3\n"  # at offset 12004

    def test_undecodable_byte_reports_its_offset_in_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(self.BAD_BYTE)
        with pytest.raises(ParseError, match=r"^malformed CSV: .* in position 12004: "):
            ingest_csv(path)

    def test_undecodable_byte_reports_its_offset_in_a_stream(self):
        # the text wrapper decodes in chunks of 8 KiB; the offset is the input's, not a chunk's
        stream = io.TextIOWrapper(io.BytesIO(self.BAD_BYTE), encoding="utf-8")
        with pytest.raises(ParseError, match=r"^malformed CSV: .* in position 12004: "):
            ingest_csv(stream)

    def test_undecodable_byte_offset_counts_the_bom(self, tmp_path):
        raw = b"\xef\xbb\xbfa,b\n1,\xff\n"  # the bad byte is at offset 9
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
        for source in (path, stream):
            with pytest.raises(ParseError, match=r"^malformed CSV: 'utf-8' .* in position 9: "):
                ingest_csv(source)

    def test_binary_stream_is_a_parse_error(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n")
        message = r"^<stream>: read bytes, not text; open the stream in text mode$"
        with open(path, "rb") as fh:
            for stream in (io.BytesIO(b"a,b\n1,2\n"), fh):
                with pytest.raises(ParseError, match=message):
                    ingest_csv(stream)
        with pytest.raises(ParseError, match=message):
            ingest_csv_stratified(io.BytesIO(b"a,b\n1,2\n"), "a")


class TestLineEnds:
    """A file is read with newline="", so a lone CR ends a record; a stream's
    lines end at LF only, so in any stream a lone CR sits inside a field,
    which csv.reader rejects.  sys.stdin has already turned CR into LF."""

    TEXT = "a,b\r1,2\r3,4\r"

    def test_lone_cr_ends_a_record_in_a_file(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(self.TEXT.encode("utf-8"))
        assert ingest_csv(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert dict(ingest_csv_stratified(path, "a"))["3"].names == ("b",)

    def test_lone_cr_in_a_stream_is_a_parse_error(self):
        message = r"^malformed CSV: new-line character seen in unquoted field"
        with pytest.raises(ParseError, match=message) as info:
            ingest_csv(io.StringIO(self.TEXT))
        assert info.value.row is None
        with pytest.raises(ParseError, match=message):
            ingest_csv_stratified(io.StringIO(self.TEXT), "a")

    def test_lone_cr_in_a_stream_opened_with_newline_empty_is_a_parse_error(self):
        for stream in (io.StringIO(self.TEXT, newline=""), io.TextIOWrapper(
                io.BytesIO(self.TEXT.encode("utf-8")), encoding="utf-8", newline="")):
            with pytest.raises(ParseError, match="new-line character seen in unquoted field"):
                ingest_csv(stream)

    def test_lone_cr_on_stdin_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.TEXT))
        code = main(["fit", "--input", "-", "--outcome", "a", "--exposure", "b"])
        assert code == 2
        assert "new-line character seen in unquoted field" in capsys.readouterr().err


def _refuse(*args, **kwargs):
    raise AssertionError("csv.reader called")


class TestSplitPath:
    def test_fixture_is_read_without_the_csv_module(self, monkeypatch):
        text = FIXTURE.read_text(encoding="utf-8")
        names, values = oracles.csv_rowwise(text)
        strata = oracles.csv_rowwise_stratified(text, "sex")
        monkeypatch.setattr(ingest.csv, "reader", _refuse)
        data = ingest_csv(FIXTURE)
        assert data.names == names and data.values.tobytes() == values.tobytes()
        got = ingest_csv_stratified(FIXTURE, "sex")
        assert [label for label, _ in got] == [label for label, _, _ in strata]
        for (_, data), (_, names, values) in zip(got, strata):
            assert data.names == names and data.values.tobytes() == values.tobytes()


# ---------------------------------------------------------------------------
# equivalence with the row-wise reference reader and writer
# ---------------------------------------------------------------------------

NUMERIC_CELLS = ["0", "1", "1.0", "-0.0", "2.5", " 3 ", "\t4\t", "1e-5", "1E3",
                 "1_0", "\xa05\u3000", "nan", "NaN", " inf", "-inf", "1e400", "-1e400"]
BLANK_CELLS = ["", " ", "\t", "\xa0", "\u2003"]
TEXT_CELLS = ["a", "b", " a ", "A", "1x", "x1", "e", "-", ".", "b\t", "n a"]
CELL_ALPHABET = "ab1.e-+_ \t\xa0\u2003\x85\u2028"

cell_pools = st.sampled_from([
    NUMERIC_CELLS,
    NUMERIC_CELLS + BLANK_CELLS,
    TEXT_CELLS,
    TEXT_CELLS + BLANK_CELLS,
    NUMERIC_CELLS + TEXT_CELLS + BLANK_CELLS,
    ["a", "b"],  # frequency ties are common with two levels
    ["a"],  # a single level
    ["1", "b"],  # a 1 level in a categorical column stays "1.0"
])


@st.composite
def csv_texts(draw, stratify=False):
    ncol = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 25))
    pools = [draw(cell_pools) for _ in range(ncol)]
    header = [draw(st.sampled_from(["c{}", " c{} ", "c{}\t"])).format(j) for j in range(ncol)]
    if stratify:
        header = ["s"] + header
        pools = [["M", "F", " M", "M ", "", " ", "F"]] + pools
    blank_lines = draw(st.booleans())  # without any, a text can take the split path
    rows = [[draw(st.one_of(st.sampled_from(pool),
                            st.text(CELL_ALPHABET, max_size=4)) if len(pool) > 2
                  else st.sampled_from(pool))
             for pool in pools]
            for _ in range(nrows)]
    # rows with one field too many (+1) or too few (-1); a pair of them leaves
    # the text's total field count that of a rectangular table
    ragged = draw(st.sampled_from([()] * 4 + [(1,), (-1,), (1, -1), (-1, 1)]))
    if 0 < len(ragged) <= nrows:
        at = draw(st.lists(st.integers(0, nrows - 1), min_size=len(ragged),
                           max_size=len(ragged), unique=True))
        for i, extra in zip(sorted(at), ragged):
            rows[i] = rows[i] + rows[i][-1:] if extra > 0 else rows[i][:-1]
    lines = [",".join(header)]
    for cells in rows:
        lines.append(",".join(cells))
        if blank_lines and draw(st.integers(0, 9)) == 0:
            lines.append("")  # a blank line
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _outcome(fn):
    """("ok", result, warnings) or ("error", kind, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", fn())
        except (ParseError, oracles.CsvOracleError) as exc:
            result = ("error", getattr(exc, "kind", "parse"))
        except EmptyAfterFilteringError:
            result = ("error", "empty")
        except KeyError:
            result = ("error", "key")
    return (*result, [str(w.message) for w in caught])


class TestMatchesRowwiseReference:
    @settings(max_examples=1000, deadline=None)
    @given(text=csv_texts())
    def test_ingest_csv(self, tmp_path_factory, text):
        for source, name in _sources(tmp_path_factory.getbasetemp(), text):
            got = _outcome(lambda: ingest_csv(source))
            want = _outcome(lambda: oracles.csv_rowwise(text, name))
            assert got[0] == want[0] and got[2] == want[2]
            if got[0] == "ok":
                data, (names, values) = got[1], want[1]
                assert data.names == names
                assert data.values.tobytes() == values.tobytes()
            else:
                assert got[1] == want[1]

    @settings(max_examples=800, deadline=None)
    @given(text=csv_texts(stratify=True))
    def test_ingest_csv_stratified(self, tmp_path_factory, text):
        for source, name in _sources(tmp_path_factory.getbasetemp(), text):
            got = _outcome(lambda: ingest_csv_stratified(source, "s"))
            want = _outcome(lambda: oracles.csv_rowwise_stratified(text, "s", name))
            assert got[0] == want[0] and got[2] == want[2]
            if got[0] == "ok":
                assert [label for label, _ in got[1]] == [label for label, _, _ in want[1]]
                for (_, data), (_, names, values) in zip(got[1], want[1]):
                    assert data.names == names
                    assert data.values.tobytes() == values.tobytes()
            else:
                assert got[1] == want[1]

    def test_categorical_one_level_keeps_float_spelling(self):
        data = ingest_csv(io.StringIO("v,y\n1,1\nb,2\n1,3\n b ,4\n"))
        assert data.names == ("v:b", "y")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5,
               9.999999999999999e-06, 1.0000000000000001e-05, 0.0001, 1e16, -1e16,
               9999999999999998.0, 1.0000000000000002e16, 1e15, 1.7976931348623157e308]


class TestWriterRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=k, max_size=k),
        min_size=1, max_size=20)))
    def test_write_then_read_is_bit_exact(self, rows):
        data = Dataset([f"x{j}" for j in range(len(rows[0]))], np.array(rows))
        buf = io.StringIO()
        dataset_to_csv(data, buf)
        assert buf.getvalue() == oracles.csv_write_rowwise(data.names, data.values)
        again = ingest_csv(io.StringIO(buf.getvalue()))
        assert again.names == data.names
        assert again.values.tobytes() == data.values.tobytes()

    def test_bytes_match_reference_across_write_blocks(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(10_000, 3)) * 10.0 ** rng.integers(-8, 18, size=(10_000, 3))
        data = Dataset(("a", "b,c", "d"), values)
        buf = io.StringIO()
        dataset_to_csv(data, buf)
        assert buf.getvalue() == oracles.csv_write_rowwise(data.names, data.values)
        assert ingest_csv(io.StringIO(buf.getvalue())).values.tobytes() == values.tobytes()
