"""Interferometer scenarios: path supports, detector coefficients, and the
symmetric detector-state families they induce.

A scenario on N paths is fixed by a support (the computational-basis indices
carrying amplitude), one strictly positive amplitude per support index, and
the diagonal root-of-unity phase action that generates the N detector states
from the fiducial one. Everything downstream (discrimination measurements,
entropic quantifiers, saturation analysis) consumes these types; all of them
are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ValidationError",
    "Support",
    "DetectorSpec",
    "SymmetricSet",
    "build_symmetric_set",
    "detector_reduced_distribution",
    "enumerate_uniform_specs",
    "uniform_spec",
    "spec_from_probabilities",
    "spec_to_json_dict",
    "support_label",
    "spec_from_json_dict",
    "phase_table",
    "is_int",
]

# Squared amplitudes summing to 1 within NORM_EXACT_ATOL are taken as
# normalized; anything within NORM_REPAIR_ATOL is silently renormalized,
# anything worse is rejected.
NORM_EXACT_ATOL = 1e-12
NORM_REPAIR_ATOL = 1e-9

# Below this, 1 - n * min(a_k^2) is treated as exactly zero: the coefficients
# are uniform and the separation failure branch does not exist.
DEGENERATE_FAILURE_ATOL = 1e-12

# Smallest accepted squared coefficient, the smallest normal float: the
# separation formulas divide by it, and its reciprocal is still finite.
PROBABILITY_FLOOR = sys.float_info.min


class ValidationError(ValueError):
    """Raised when an input violates a documented invariant."""


def is_int(value) -> bool:
    """True for a Python integer that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_index(value) -> int:
    """A support index as an int: Python and numpy integers, and floats with
    an integral value. Bools, strings and other floats are rejected rather
    than truncated."""
    if is_int(value) or isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValidationError(f"support indices must be integers, got {value!r}")


@lru_cache(maxsize=64)
def phase_table(n_paths: int) -> np.ndarray:
    """Read-only table of root-of-unity powers, ``table[l, k] = exp(2j*pi*k*l/N)``."""
    grid = np.outer(np.arange(n_paths), np.arange(n_paths))
    table = np.exp(2j * np.pi * grid / n_paths)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class Support:
    """Strictly increasing basis indices in ``{0, ..., N-1}`` carrying amplitude.

    Cyclic shifts of a support are distinct values on purpose: enumeration
    keeps all of them and any deduplication happens at the analysis layer.
    """

    N: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_int(self.N) or self.N < 2:
            raise ValidationError(f"path count must be an integer >= 2, got {self.N!r}")
        idx = tuple(_as_index(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValidationError("support must contain at least one index")
        if any(i < 0 or i >= self.N for i in idx):
            raise ValidationError(
                f"support indices must lie in 0..{self.N - 1}, got {idx}"
            )
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValidationError(f"support indices must be strictly increasing, got {idx}")

    @property
    def n(self) -> int:
        """Number of support indices (dimension of the spanned subspace)."""
        return len(self.indices)

    def cyclic_gaps(self) -> tuple[int, ...]:
        """Gaps between cyclically consecutive indices; the multiset sums to N."""
        idx = self.indices
        if len(idx) == 1:
            return (self.N,)
        gaps = [b - a for a, b in zip(idx, idx[1:])]
        gaps.append(self.N - idx[-1] + idx[0])
        return tuple(gaps)

    def label(self) -> str:
        """Dash-joined index string used in CSV output, e.g. ``\"0-3\"``."""
        return support_label(self.indices)


def support_label(indices) -> str:
    """Dash-joined index string of a support given as a sequence of ints."""
    return "-".join(map(str, indices))


@dataclass(frozen=True)
class DetectorSpec:
    """A support plus one strictly positive amplitude per support index.

    Amplitudes (not probabilities) are stored so downstream formulas avoid
    repeated square roots; their squares sum to one. Zero coefficients are
    expressed by shrinking the support, never by a zero entry.
    """

    support: Support
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) != self.support.n:
            raise ValidationError(
                f"need one coefficient per support index: got {len(coeffs)} "
                f"for support of size {self.support.n}"
            )
        if any(not math.isfinite(c) or c <= 0.0 or c * c < PROBABILITY_FLOOR for c in coeffs):
            raise ValidationError(
                "coefficients must be strictly positive and finite, with squares of at "
                f"least {PROBABILITY_FLOOR!r} (the smallest normal float); express zero "
                "entries by shrinking the support"
            )
        total = math.fsum(c * c for c in coeffs)
        if abs(total - 1.0) > NORM_REPAIR_ATOL:
            raise ValidationError(
                f"squared coefficients must sum to 1 within {NORM_REPAIR_ATOL} "
                f"(got {total!r})"
            )
        if total != 1.0:
            scale = 1.0 / math.sqrt(total)
            coeffs = tuple(c * scale for c in coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def N(self) -> int:
        return self.support.N

    @property
    def n(self) -> int:
        return self.support.n

    @property
    def amplitudes(self) -> np.ndarray:
        """Amplitudes over the support, as a read-only float array (cached)."""
        cached = self.__dict__.get("_amplitudes")
        if cached is None:
            cached = np.asarray(self.coeffs, dtype=float)
            cached.setflags(write=False)
            object.__setattr__(self, "_amplitudes", cached)
        return cached

    @property
    def probabilities(self) -> np.ndarray:
        """Squared amplitudes over the support (the detector's reduced diagonal)."""
        cached = self.__dict__.get("_probabilities")
        if cached is None:
            cached = self.amplitudes**2
            cached.setflags(write=False)
            object.__setattr__(self, "_probabilities", cached)
        return cached

    @property
    def min_probability(self) -> float:
        return float(self.probabilities.min())

    @property
    def is_uniform(self) -> bool:
        """True when every squared amplitude equals 1/n within tolerance.

        Uniform coefficients admit no overlap-reducing separation, so the
        failure branch of the two-step measurements is absent.
        """
        return 1.0 - self.n * self.min_probability <= DEGENERATE_FAILURE_ATOL


@dataclass(frozen=True, eq=False)
class SymmetricSet:
    """The N detector states of a scenario, one per interferometer path.

    ``states[l]`` is the length-N complex amplitude vector of state ``l``;
    entries off the support are exactly zero. State ``l`` is the ``l``-fold
    phase action applied to state 0, so the Gram matrix is circulant.
    """

    spec: DetectorSpec
    states: np.ndarray

    def gram(self) -> np.ndarray:
        """Pairwise overlaps ``gram[i, j] = <state_i | state_j>``."""
        return self.states.conj() @ self.states.T


def build_symmetric_set(spec: DetectorSpec) -> SymmetricSet:
    """Construct the N symmetric detector states of a scenario.

    State ``l`` has amplitude ``a_k * exp(2j*pi*k*l/N)`` on each support
    index ``k`` and zero elsewhere; every state is unit norm.
    """
    idx = list(spec.support.indices)
    states = np.zeros((spec.N, spec.N), dtype=complex)
    states[:, idx] = spec.amplitudes * phase_table(spec.N)[:, idx]
    states.setflags(write=False)
    return SymmetricSet(spec=spec, states=states)


def detector_reduced_distribution(spec: DetectorSpec) -> np.ndarray:
    """Probability vector over the support: the squared amplitudes.

    This is the diagonal of the detector's reduced state in the computational
    basis; the state itself is diagonal for symmetric families.
    """
    return spec.probabilities.copy()


def uniform_spec(N: int, indices) -> DetectorSpec:
    """Scenario with uniform coefficients ``1/sqrt(n)`` on the given support."""
    support = Support(N=N, indices=tuple(indices))
    amp = 1.0 / math.sqrt(support.n)
    return DetectorSpec(support=support, coeffs=(amp,) * support.n)


def spec_from_probabilities(N: int, indices, probabilities) -> DetectorSpec:
    """Scenario from squared coefficients; they must be positive and sum to 1."""
    probs = [float(p) for p in probabilities]
    if any(not math.isfinite(p) or p <= 0.0 for p in probs):
        raise ValidationError(
            "squared coefficients must be strictly positive and finite; express "
            "zero entries by shrinking the support"
        )
    support = Support(N=N, indices=tuple(indices))
    return DetectorSpec(support=support, coeffs=tuple(math.sqrt(p) for p in probs))


def enumerate_uniform_specs(N: int, n: int) -> list[DetectorSpec]:
    """All C(N, n) uniform scenarios of subspace dimension n, in lexicographic
    support order."""
    if not is_int(n) or not 1 <= n <= N:
        raise ValidationError(f"subspace dimension must satisfy 1 <= n <= {N}, got {n!r}")
    return [uniform_spec(N, combo) for combo in itertools.combinations(range(N), n)]


def spec_to_json_dict(spec: DetectorSpec) -> dict:
    """JSON form ``{"N": int, "support": [int], "coeffs_sq": [float]}``."""
    return {
        "N": spec.N,
        "support": list(spec.support.indices),
        "coeffs_sq": [c * c for c in spec.coeffs],
    }


def spec_from_json_dict(data: dict) -> DetectorSpec:
    """Inverse of :func:`spec_to_json_dict`; validates all invariants."""
    try:
        n_paths = data["N"]
        support = data["support"]
        coeffs_sq = data["coeffs_sq"]
    except (TypeError, KeyError) as exc:
        raise ValidationError(
            'scenario JSON must provide "N", "support" and "coeffs_sq"'
        ) from exc
    if not is_int(n_paths):
        raise ValidationError(f'"N" must be an integer, got {n_paths!r}')
    try:
        return spec_from_probabilities(n_paths, support, coeffs_sq)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scenario JSON: {exc}") from exc
