import csv

import numpy as np

from polarlex.ioutil import write_csv


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
