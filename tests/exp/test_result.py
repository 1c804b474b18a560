"""Result/Series records: indexing, tabulation and JSON/CSV export."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.exp import ExperimentSpec, Result, ResultCache, Runner, Series


def toy_series() -> Series:
    results = [
        Result(
            spec=ExperimentSpec("selfcheck", params={"n": n, "scale": 2.0}),
            value={"total": float(n * 2), "values": [1.0] * n},
            elapsed_s=0.5,
        )
        for n in (2, 3)
    ]
    return Series(results=results)


class TestSeriesAccess:
    def test_values_and_table(self):
        series = toy_series()
        assert series.values("total") == [4.0, 6.0]
        assert series.table("n", "total") == {2: 4.0, 3: 6.0}

    def test_by_param(self):
        by_n = toy_series().by_param("n")
        assert set(by_n) == {2, 3}
        assert by_n[3]["total"] == 6.0

    def test_by_param_rejects_duplicates(self):
        series = toy_series()
        series.results.append(series.results[0])
        with pytest.raises(ValueError, match="not unique"):
            series.by_param("n")

    def test_result_getitem(self):
        result = toy_series()[0]
        assert result["total"] == 4.0
        assert result.experiment == "selfcheck"


class TestExport:
    def test_json_roundtrip(self, tmp_path):
        series = toy_series()
        path = tmp_path / "series.json"
        text = series.to_json(path)
        restored = json.loads(path.read_text(encoding="utf-8"))
        assert restored == json.loads(text) == [r.to_dict() for r in series]
        assert [item["value"]["total"] for item in restored] == series.values("total")
        assert ExperimentSpec.from_dict(restored[0]["spec"]) == series[0].spec

    def test_csv_shape(self):
        rows = list(csv.reader(io.StringIO(toy_series().to_csv())))
        header, *data = rows
        assert header == [
            "experiment", "seed", "n", "scale", "value.total", "value.values",
            "elapsed_s", "cached",
        ]
        assert len(data) == 2
        assert data[0][0] == "selfcheck"
        assert json.loads(data[0][5]) == [1.0, 1.0]  # nested field JSON-encoded

    def test_csv_written_to_disk(self, tmp_path):
        path = tmp_path / "series.csv"
        toy_series().to_csv(path)
        assert path.read_text().startswith("experiment,seed,")


class TestModuleEntryPoint:
    def test_python_dash_m_repro_exp(self, tmp_path):
        """`python -m repro.exp` works as documented (subprocess level)."""
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.exp", "run", "selfcheck",
                "-p", "n=3", "--cache-dir", str(tmp_path / "cache"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "[selfcheck] computed" in proc.stdout


class TestRunnerProducesExportableSeries:
    def test_sweep_to_csv_includes_cache_column(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep = ExperimentSpec("selfcheck").sweep(n=[2, 3])
        Runner(cache=cache).sweep(sweep)
        series = Runner(cache=cache).sweep(sweep)
        rows = list(csv.reader(io.StringIO(series.to_csv())))
        assert [row[-1] for row in rows[1:]] == ["1", "1"]  # all cached
