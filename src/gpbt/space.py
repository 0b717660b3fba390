"""Hyperparameter search space: dimension scaling, unit-cube transforms, sampling.

All searchers operate on coordinates in the unit cube [0, 1]^d; the transforms
between native units and unit coordinates live here so no searcher duplicates
scale logic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import ConfigError, typed_value

HpVector = tuple[float, ...]

# Per scale: the warp under which the scale is affine, and its inverse.
_WARPS = {
    "linear": (lambda x: x, lambda y: y),
    "log": (math.log10, lambda y: 10.0 ** y),
    "reverse-log": (lambda x: math.log10(1.0 - x), lambda y: 1.0 - 10.0 ** y),
}
SCALES = tuple(_WARPS)


@dataclass(frozen=True)
class Dimension:
    """One continuous hyperparameter with native-unit bounds.

    scale:
      linear       affine map onto [0, 1]
      log          affine in log10(x); requires lower > 0
      reverse-log  affine in log10(1 - x); requires upper < 1. Intended for
                   ranges written as [1 - 10^a, 1 - 10^b] (e.g. Adam betas),
                   sampled uniformly in log10(1 - x).

    In every scale u=0 maps to `lower` and u=1 to `upper`.
    """

    name: str
    lower: float
    upper: float
    scale: str = "linear"

    def __post_init__(self):
        if self.scale not in SCALES:
            raise ValueError(f"dimension {self.name!r}: unknown scale {self.scale!r}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"dimension {self.name!r}: bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(
                f"dimension {self.name!r}: lower {self.lower} must be < upper {self.upper}"
            )
        if self.scale == "log" and self.lower <= 0:
            raise ValueError(f"dimension {self.name!r}: log scale requires lower > 0")
        if self.scale == "reverse-log" and self.upper >= 1:
            raise ValueError(f"dimension {self.name!r}: reverse-log scale requires upper < 1")
        # The warped bounds, computed once. They are plain attributes, not
        # fields, so equality, repr and `asdict` see only the four fields.
        warp, _ = _WARPS[self.scale]
        object.__setattr__(self, "_lo", warp(self.lower))
        object.__setattr__(self, "_hi", warp(self.upper))

    def to_unit(self, x: float) -> float:
        warp, _ = _WARPS[self.scale]
        lo, hi = self._lo, self._hi
        return (warp(x) - lo) / (hi - lo)

    def from_unit(self, u: float) -> float:
        # Endpoints map exactly; interior values are clamped into the bounds
        # so a 1-ulp transform overshoot can never produce an invalid value.
        if u == 0.0:
            return self.lower
        if u == 1.0:
            return self.upper
        _, unwarp = _WARPS[self.scale]
        lo, hi = self._lo, self._hi
        return min(max(unwarp(lo + u * (hi - lo)), self.lower), self.upper)


class SearchSpace:
    """Ordered collection of dimensions with unique names."""

    def __init__(self, dims: Iterable[Dimension]):
        dims = tuple(dims)
        if not dims:
            raise ValueError("search space needs at least one dimension")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise ValueError("duplicate dimension names")
        self.dims = dims
        self.names = tuple(names)

    @property
    def dim(self) -> int:
        return len(self.dims)

    def to_unit(self, hp: Sequence[float]) -> np.ndarray:
        """Map a native-unit vector into the unit cube.

        Raises ValueError on arity mismatch or out-of-range coordinates.
        """
        violation = self.validate(hp)
        if violation is not None:
            raise ValueError(violation)
        return np.array([d.to_unit(x) for d, x in zip(self.dims, hp)])

    def from_unit(self, u: Sequence[float]) -> HpVector:
        """Map unit-cube coordinates back to native units (inverse of to_unit)."""
        xs = u.tolist() if isinstance(u, np.ndarray) else [float(x) for x in u]
        if len(xs) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(xs)}")
        hp = []
        for i, (d, x) in enumerate(zip(self.dims, xs)):
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"unit coordinate {i} ({d.name!r}) outside [0, 1]: {x}")
            hp.append(d.from_unit(x))
        return tuple(hp)

    def sample_uniform(self, rng: np.random.Generator) -> HpVector:
        """Draw uniformly in unit space, then map to native units.

        Log dims are therefore log-uniform in native units, reverse-log dims
        log-uniform in 1 - x.
        """
        return self.from_unit(rng.random(self.dim))

    def validate(self, hp: Sequence[float]) -> str | None:
        """Return None if `hp` is valid, else a message naming the first violation."""
        if len(hp) != self.dim:
            return f"expected {self.dim} values, got {len(hp)}"
        for d, x in zip(self.dims, hp):
            if not d.lower <= x <= d.upper:
                return f"dimension {d.name!r}: value {x} outside [{d.lower}, {d.upper}]"
        return None

    def to_dict(self, hp: Sequence[float]) -> dict[str, float]:
        """Name -> value mapping, the form trainers consume."""
        return dict(zip(self.names, hp))

    def as_config(self) -> list[dict]:
        return [asdict(d) for d in self.dims]

    @classmethod
    def from_config(cls, entries: list[dict]) -> "SearchSpace":
        """Build from the run-config declaration: [{name, lower, upper, scale}, ...].

        Raises ConfigError (a ValueError) naming the entry or field at fault.
        """
        dims = typed_value(list[Dimension], entries, "space")
        try:
            return cls(dims)
        except ValueError as exc:
            raise ConfigError("space", str(exc)) from None

    def __repr__(self):
        parts = ", ".join(f"{d.name}[{d.lower}, {d.upper}]({d.scale})" for d in self.dims)
        return f"SearchSpace({parts})"
