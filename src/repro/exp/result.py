"""Typed experiment results and result-series export.

A :class:`Result` is one completed experiment point (spec + value +
provenance); a :class:`Series` is an ordered collection of results — one
sweep — with JSON/CSV export and small tabulation helpers used by the
figure benchmarks.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.exp.spec import ExperimentSpec, canonical_json

__all__ = ["Result", "Series"]


@dataclass(frozen=True)
class Result:
    """One experiment point: what ran, what it produced, where it came from."""

    spec: ExperimentSpec
    value: Any
    elapsed_s: float = 0.0
    cached: bool = False
    key: str = ""

    @property
    def experiment(self) -> str:
        return self.spec.experiment

    @property
    def params(self) -> Mapping[str, Any]:
        return self.spec.params

    def __getitem__(self, field_name: str) -> Any:
        """Index into the value payload: ``result["baseline"]``."""
        return self.value[field_name]

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "value": self.value,
            "elapsed_s": self.elapsed_s,
            "cached": self.cached,
            "key": self.key,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Result":
        return cls(
            spec=ExperimentSpec.from_dict(payload["spec"]),
            value=payload.get("value"),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            cached=bool(payload.get("cached", False)),
            key=str(payload.get("key", "")),
        )


@dataclass
class Series:
    """An ordered sweep of results with export helpers."""

    results: list[Result] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Result]:
        return iter(self.results)

    def __getitem__(self, index: int) -> Result:
        return self.results[index]

    # ------------------------------------------------------------------
    def values(self, field_name: str) -> list[Any]:
        """The given value field across all results, in sweep order."""
        return [r.value[field_name] for r in self.results]

    def by_param(self, param: str) -> dict[Any, Result]:
        """Index results by one sweep parameter (must be unique per point)."""
        indexed: dict[Any, Result] = {}
        for result in self.results:
            key = result.params.get(param)
            if key in indexed:
                raise ValueError(f"parameter {param!r} is not unique across the series")
            indexed[key] = result
        return indexed

    def table(self, x_param: str, field_name: str) -> dict[Any, Any]:
        """``{point[x_param]: value[field_name]}`` across the series."""
        return {
            r.params.get(x_param): r.value[field_name] for r in self.results
        }

    # ------------------------------------------------------------------
    def to_json(self, path: str | Path | None = None) -> str:
        """JSON document (list of result dicts); optionally written to disk."""
        text = json.dumps([r.to_dict() for r in self.results], indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, text_or_path: str | Path) -> "Series":
        path = Path(text_or_path) if not str(text_or_path).lstrip().startswith("[") else None
        text = path.read_text(encoding="utf-8") if path is not None else str(text_or_path)
        return cls(results=[Result.from_dict(item) for item in json.loads(text)])

    def to_csv(self, path: str | Path | None = None) -> str:
        """Flat CSV: one row per point, params + scalar value fields.

        Non-scalar value fields (lists, nested dicts) are JSON-encoded in
        their cell so the table stays loadable by spreadsheet tools.
        """
        param_keys = sorted({k for r in self.results for k in r.params})
        value_keys = sorted(
            {
                k
                for r in self.results
                if isinstance(r.value, Mapping)
                for k in r.value
            }
        )
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            [
                "experiment",
                "seed",
                *param_keys,
                *(f"value.{k}" for k in value_keys),
                "elapsed_s",
                "cached",
            ]
        )
        for r in self.results:
            row: list[Any] = [r.experiment, r.spec.seed]
            row += [_cell(r.params.get(k)) for k in param_keys]
            value = r.value if isinstance(r.value, Mapping) else {}
            row += [_cell(value.get(k)) for k in value_keys]
            row += [f"{r.elapsed_s:.6f}", int(r.cached)]
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text


def _cell(value: Any) -> Any:
    """CSV cell encoding: scalars verbatim, containers as canonical JSON."""
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    if isinstance(value, (Mapping, Sequence)):
        return canonical_json(value)
    return str(value)
