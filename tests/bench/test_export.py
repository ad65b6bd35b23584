"""CSV export."""

import csv

from repro.bench.export import scaling_points_to_csv, series_to_csv, write_csv
from repro.scenario import Scenario, ScenarioResult


def read_back(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_write_csv_roundtrip(tmp_path):
    path = write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], [3, 4]])
    rows = read_back(path)
    assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]


def test_write_csv_creates_parent_dirs(tmp_path):
    path = write_csv(tmp_path / "deep" / "dir" / "x.csv", ["h"], [[1]])
    assert path.exists()


def test_scaling_points_csv(tmp_path):
    def result(technique, cores, mpps, iterations):
        return ScenarioResult(
            scenario=Scenario.create("ddos", "caida", technique, cores),
            mlffr_mpps=mpps, iterations=iterations, probes=[],
        )

    results = [
        result("scr", 1, 8.77, 10),
        result("scr", 2, 15.5, 11),
        result("rss", 1, 8.77, 9),
    ]
    rows = read_back(scaling_points_to_csv(results, tmp_path / "p.csv"))
    assert rows[0] == ["technique", "cores", "mlffr_mpps", "search_iterations"]
    assert rows[1] == ["scr", "1", "8.7700", "10"]
    assert len(rows) == 4


def test_series_csv_wide_format(tmp_path):
    series = {"scr": [(1, 8.0), (2, 16.0)], "rss": [(1, 8.0)]}
    rows = read_back(series_to_csv(series, tmp_path / "s.csv"))
    assert rows[0] == ["cores", "scr", "rss"]
    assert rows[1] == ["1", "8.0000", "8.0000"]
    assert rows[2] == ["2", "16.0000", ""]  # missing point stays blank
