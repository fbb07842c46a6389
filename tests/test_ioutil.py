import csv

import numpy as np
import pytest

from polarlex.errors import DataError
from polarlex.ioutil import check_dimension_name, read_rows, write_csv


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    rows = [
        [np.float64(1 / 3), None, 7, "plain"],
        [-1e-12, 2.5, np.int64(3), 'a,b "c"\nd'],
        ["u\r1", 1.0, False, ""],
    ]
    write_csv(path, ["f", "blank", "int", "text"], rows)
    assert path.read_bytes() == (
        b"f,blank,int,text\n"
        b"0.333333333,,7,plain\n"
        b'-0.000000000,2.500000000,3,"a,b ""c""\nd"\n'
        b'"u\r1",1.000000000,False,\n'
    )
    with open(path, encoding="utf-8", newline="") as fh:
        back = list(csv.reader(fh))
    assert back[2] == ["-0.000000000", "2.500000000", "3", 'a,b "c"\nd']
    assert back[3] == ["u\r1", "1.000000000", "False", ""]


def rows_of(path, text, n_fields=2, **kw):
    path.write_text(text, encoding="utf-8")
    return list(read_rows(path, "\t", n_fields, **kw))


class TestReadRows:
    HEADER = ("dimension", "scale")

    def test_header_values_come_first(self, tmp_path):
        got = rows_of(tmp_path / "f.tsv", "#dimension=d\tscale=-1,1\nx\t1\n", header=self.HEADER)
        assert got == [(1, ["d", "-1,1"]), (2, ["x", "1"])]

    def test_value_may_hold_equals_sign(self, tmp_path):
        got = rows_of(tmp_path / "f.tsv", "#dimension=a=b\tscale=\n", header=self.HEADER)
        assert got == [(1, ["a=b", ""])]

    @pytest.mark.parametrize(
        "text",
        [
            "#scale=-1,1\tdimension=d\n",
            "#dimension=d\trange=-1,1\n",
            "dimension=d\tscale=-1,1\n",
            "#dimension=d\tscale=-1,1\tmode=token\n",
            "#dimension=d\n",
            "#dimension\tscale=-1,1\n",
            "# dimension=d\tscale=-1,1\n",
            "",
            " \n",
            "\n#dimension=d\tscale=-1,1\n",
        ],
        ids=["swapped", "misnamed", "no-hash", "extra-field", "missing-field", "no-equals",
             "space", "empty", "blank", "header-on-line-2"],
    )
    def test_header_must_be_line_1_with_its_keys_in_order(self, tmp_path, text):
        path = tmp_path / "f.tsv"
        with pytest.raises(DataError) as exc:
            rows_of(path, text, header=self.HEADER)
        assert str(exc.value) == (
            f"{path}: line 1: expected the header '#dimension=<dimension>\\tscale=<scale>'"
        )

    def test_repeated_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "f.tsv"
        with pytest.raises(DataError) as exc:
            rows_of(path, "a\t1\nb\t2\na\t3\n", key="item")
        assert str(exc.value) == f"{path}: line 3: duplicate item 'a'"

    def test_without_key_rows_may_repeat(self, tmp_path):
        got = rows_of(tmp_path / "f.tsv", "a\t1\na\t2\n")
        assert got == [(1, ["a", "1"]), (2, ["a", "2"])]

    def test_key_and_comments(self, tmp_path):
        path = tmp_path / "f.tsv"
        text = "# key\tlabel\na\t1\n# key\tlabel\n#a\t2\nb\t3\n"
        assert rows_of(path, text, key="key", comments=True) == [(2, ["a", "1"]), (5, ["b", "3"])]
        with pytest.raises(DataError) as exc:
            rows_of(path, "# key\ta\nb\t1\n# b\t2\nb\t3\n", key="key", comments=True)
        assert str(exc.value) == f"{path}: line 4: duplicate key 'b'"

    def test_header_row_is_not_a_key(self, tmp_path):
        got = rows_of(tmp_path / "f.tsv", "#mode=m\n#mode=m\t1\n", header=("mode",), key="node")
        assert got == [(1, ["m"]), (2, ["#mode=m", "1"])]


@pytest.mark.parametrize("name", ["a/b", "a\0b", "/"])
def test_dimension_name_with_slash_or_nul(tmp_path, name):
    with pytest.raises(DataError) as exc:
        check_dimension_name(tmp_path / "f.tsv", 7, name)
    assert str(exc.value) == (
        f"{tmp_path / 'f.tsv'}: line 7: dimension name holds '/' or NUL: {name!r}"
    )


def test_dimension_name_with_comma_and_equals(tmp_path):
    assert check_dimension_name(tmp_path / "f.tsv", 1, "a,b=c d") == "a,b=c d"
