"""Tests for CSV/JSON recording and ASCII rendering."""

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.ascii_plot import ascii_plot, format_table
from repro.experiments.recording import read_csv, write_csv, write_json


class TestRecording:
    def test_csv_round_trip(self, tmp_path):
        rows = [
            {"n": 8, "value": 1.5, "converged": True},
            {"n": 16, "value": 2.5, "converged": False, "extra": "x"},
        ]
        path = write_csv(tmp_path / "out.csv", rows)
        loaded = read_csv(path)
        assert loaded[0]["n"] == 8
        assert loaded[0]["value"] == 1.5
        assert loaded[0]["converged"] is True
        assert loaded[1]["extra"] == "x"
        assert loaded[0]["extra"] is None

    def test_empty_rows_are_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            write_csv(tmp_path / "out.csv", [])

    def test_write_json(self, tmp_path):
        path = write_json(tmp_path / "out.json", {"a": [1, 2, 3]})
        assert path.read_text().startswith("{")


class TestAsciiRendering:
    def test_format_table_alignment(self):
        text = format_table([{"n": 8, "time": 1.23456}, {"n": 128, "time": 12.3}])
        lines = text.splitlines()
        assert lines[0].startswith("n")
        assert "1.235" in text
        assert len(lines) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(no data)"

    def test_ascii_plot_contains_points_and_labels(self):
        text = ascii_plot([0, 1, 2, 3], [0, 1, 4, 9], width=20, height=5, title="squares")
        assert "squares" in text
        assert "*" in text
        assert "9" in text

    def test_ascii_plot_validation(self):
        with pytest.raises(ValueError):
            ascii_plot([1, 2], [1])
        assert ascii_plot([], []) == "(no data)"
