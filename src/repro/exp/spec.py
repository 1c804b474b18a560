"""Declarative experiment and sweep specifications.

An :class:`ExperimentSpec` names a registered experiment function plus the
parameters and base seed it runs with; a :class:`SweepSpec` adds parameter
grids that expand to a deterministic list of points.  Both hash to stable
content keys (sha256 over canonical JSON), which drives the on-disk result
cache and the per-point seed derivation — a point's seed depends only on
the spec content, never on execution order, so parallel and serial sweeps
are bitwise identical.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "ExperimentSpec",
    "SweepSpec",
    "canonical_json",
    "content_hash",
    "derive_seed",
]


def _jsonable(value: Any) -> Any:
    """Coerce ``value`` into a JSON-round-trippable form (tuples -> lists)."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        # numpy scalars -> native python numbers
        try:
            return value.item()
        except (TypeError, ValueError):
            pass
    return value


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def content_hash(obj: Any) -> str:
    """sha256 hex digest of the canonical JSON encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def derive_seed(base_seed: int, params: Mapping[str, Any]) -> int:
    """Deterministic per-point seed from the base seed and the parameters.

    Uses sha256 (not ``hash()``) so the value is stable across processes
    and Python invocations regardless of ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256(
        f"{base_seed}|{canonical_json(params)}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment invocation: registered name + parameters + seed."""

    experiment: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "tags", tuple(self.tags))

    # ------------------------------------------------------------------
    def point_seed(self, exclude: Sequence[str] = ()) -> int:
        """The derived seed the experiment function actually receives.

        ``exclude`` drops evaluation-axis parameters (an experiment's
        registered ``eval_params``) from the derivation, so e.g. changing
        the list of protection rates evaluated does not silently retrain a
        different model.
        """
        params = {k: v for k, v in self.params.items() if k not in exclude}
        return derive_seed(self.seed, params)

    def content_key(self, code_version: str = "") -> str:
        """Cache key: spec content + the code-version fingerprint."""
        return content_hash(
            {
                "experiment": self.experiment,
                "params": self.params,
                "seed": self.seed,
                "code_version": code_version,
            }
        )

    def sweep(self, **grid: Sequence[Any]) -> "SweepSpec":
        """Lift this spec into a sweep over the given parameter grid."""
        return SweepSpec(
            experiment=self.experiment,
            grid={k: tuple(v) for k, v in grid.items()},
            base=dict(self.params),
            seed=self.seed,
            tags=self.tags,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "params": _jsonable(self.params),
            "seed": self.seed,
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        return cls(
            experiment=payload["experiment"],
            params=dict(payload.get("params", {})),
            seed=int(payload.get("seed", 0)),
            tags=tuple(payload.get("tags", ())),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian-product grid of :class:`ExperimentSpec` points."""

    experiment: str
    grid: Mapping[str, Sequence[Any]]
    base: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "grid", {k: tuple(v) for k, v in dict(self.grid).items()}
        )
        object.__setattr__(self, "base", dict(self.base))
        object.__setattr__(self, "tags", tuple(self.tags))

    def __len__(self) -> int:
        total = 1
        for values in self.grid.values():
            total *= len(values)
        return total

    def points(self) -> list[ExperimentSpec]:
        """Expand the grid in deterministic (sorted-key, row-major) order."""
        keys = sorted(self.grid)
        specs: list[ExperimentSpec] = []
        for combo in itertools.product(*(self.grid[k] for k in keys)):
            params = {**self.base, **dict(zip(keys, combo))}
            specs.append(
                ExperimentSpec(
                    experiment=self.experiment,
                    params=params,
                    seed=self.seed,
                    tags=self.tags,
                )
            )
        return specs

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.points())
