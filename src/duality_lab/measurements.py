"""Closed-form discrimination measurements for symmetric detector states.

Three strategies are covered, all acting on the n-dimensional subspace
spanned by the support basis vectors:

* minimum-error (ME), the square-root measurement with N rank-1 elements;
* standard two-step separation ("FRIO"): an optimal separation map with
  prescribed level ``xi`` followed by ME on the successful branch, failures
  discarded into a single inconclusive element;
* concatenated two-step separation: as above, but the failure branch is fed
  to a second ME round instead of being discarded.

Unambiguous discrimination (linearly independent states) and the
maximum-confidence measurement (linearly dependent states) are both the
``xi = 1`` endpoint of the separation strategies, so they get no dedicated
builders.

All matrices are embedded in the full N-dimensional detector space with
exact zeros off the support block; completeness therefore holds relative to
the support-subspace projector, not the full identity.

:func:`oracle_outcome_table` evaluates any measurement against the explicit
state vectors with plain complex matrix arithmetic. It shares no code with
the closed-form probability expressions and serves as their cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import (
    DetectorSpec,
    SymmetricSet,
    ValidationError,
    phase_table,
)

__all__ = [
    "Strategy",
    "SeparationParams",
    "Measurement",
    "OutcomeTable",
    "separation_params",
    "build_me_measurement",
    "build_frio_standard",
    "build_frio_concatenated",
    "build_two_step_measurements",
    "conditional_conclusive",
    "conditional_failure",
    "oracle_outcome_table",
    "measurement_to_json_dict",
    "MAX_POVM_PATHS",
]

# Largest path count the POVM builders accept: they hold up to 2N + 1 dense
# N x N complex matrices, and the tolerances below are set for this size.
MAX_POVM_PATHS = 64

# Eigenvalues of POVM elements may dip this far below zero from roundoff in
# rank-1 sums at the largest supported dimension (MAX_POVM_PATHS).
POSITIVITY_ATOL = 1e-10
COMPLETENESS_ATOL = 1e-10

# Outcomes with probability below this have no defined conditional
# distribution and are excluded from comparisons.
UNDEFINED_OUTCOME_ATOL = 1e-14

# Coefficients within this of the minimum get an exactly zero failure-profile
# entry; the formula would give 0/positive and roundoff could leak through.
MIN_COEFF_CLAMP_ATOL = 1e-12


class Strategy(str, Enum):
    """Discrimination strategy tags."""

    ME = "me"
    FRIO_STANDARD = "frio-standard"
    FRIO_CONCATENATED = "frio-concatenated"


@dataclass(frozen=True, eq=False)
class SeparationParams:
    """Success/failure rates and amplitude profiles of the separation step.

    ``success_profile[k]`` scales support index ``k`` in the conclusive
    measurement vectors; ``failure_profile`` does the same for the failure
    branch and is ``None`` when the coefficients are uniform (no failure
    branch exists). Profiles are per-support-index, aligned with
    ``spec.support.indices``.
    """

    xi: float
    p_success: float
    p_fail: float
    success_profile: np.ndarray
    failure_profile: np.ndarray | None


def separation_params(spec: DetectorSpec, xi: float) -> SeparationParams:
    """Optimal separation data for level ``xi`` in [0, 1].

    The success probability is ``n*p_min / ((1-xi)*n*p_min + xi)`` with
    ``p_min`` the smallest squared coefficient; it is exactly 1 for uniform
    coefficients and at xi = 0. Squared profiles:

    * success: ``(1 - xi + xi/(n*p_k)) / N``
    * failure: ``(p_k - p_min) / ((1 - n*p_min) * N * p_k)``
    """
    xi = float(xi)
    if not 0.0 <= xi <= 1.0:
        raise ValidationError(f"separation level must lie in [0, 1], got {xi!r}")
    n = spec.n
    probs = spec.probabilities
    success_profile = np.sqrt((1.0 - xi + xi / (n * probs)) / spec.N)
    if spec.is_uniform:
        return SeparationParams(
            xi=xi,
            p_success=1.0,
            p_fail=0.0,
            success_profile=success_profile,
            failure_profile=None,
        )
    p_min = spec.min_probability
    p_success = n * p_min / ((1.0 - xi) * n * p_min + xi)
    amps = spec.amplitudes
    h_sq = (probs - p_min) / ((1.0 - n * p_min) * spec.N * probs)
    h_sq[amps - amps.min() <= MIN_COEFF_CLAMP_ATOL] = 0.0
    return SeparationParams(
        xi=xi,
        p_success=p_success,
        p_fail=1.0 - p_success,
        success_profile=success_profile,
        failure_profile=np.sqrt(h_sq),
    )


@dataclass(frozen=True, eq=False)
class Measurement:
    """A labeled POVM over the detector subspace.

    ``elements`` maps labels to N x N complex Hermitian matrices. Labels are
    ``"c0".."c{N-1}"`` for conclusive outcomes, ``"fc0".."fc{N-1}"`` for
    conclusive-after-failure outcomes, and ``"f"`` for the inconclusive one.
    Elements are positive semidefinite and sum to the projector onto the
    support subspace.
    """

    strategy: Strategy
    xi: float
    elements: tuple[tuple[str, np.ndarray], ...]

    @property
    def dim(self) -> int:
        return self.elements[0][1].shape[0]

    def element(self, label: str) -> np.ndarray:
        for name, matrix in self.elements:
            if name == label:
                return matrix
        raise KeyError(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.elements)


def _profile_states(spec: DetectorSpec, scale: float, profile: np.ndarray) -> np.ndarray:
    """N measurement vectors as rows: ``sqrt(scale) * profile_k * w^{jk}`` on the
    support, zero elsewhere."""
    idx = list(spec.support.indices)
    rows = np.zeros((spec.N, spec.N), dtype=complex)
    rows[:, idx] = np.sqrt(scale) * profile * phase_table(spec.N)[:, idx]
    return rows


def _rank_one(row: np.ndarray) -> np.ndarray:
    mat = np.outer(row, row.conj())
    mat.setflags(write=False)
    return mat


def _check_povm_size(spec: DetectorSpec) -> None:
    if spec.N > MAX_POVM_PATHS:
        raise ValidationError(
            f"POVMs are built for at most {MAX_POVM_PATHS} paths, got N = {spec.N}"
        )


def build_me_measurement(spec: DetectorSpec) -> Measurement:
    """Square-root (minimum-error) measurement: N elements ``(n/N) |u_j><u_j|``,
    with ``u_j`` the uniform-profile vectors."""
    _check_povm_size(spec)
    u_rows = _profile_states(spec, 1.0, np.full(spec.n, 1.0 / np.sqrt(spec.n)))
    weight = spec.n / spec.N
    elements = tuple(
        (f"c{j}", _rank_one(np.sqrt(weight) * u_rows[j])) for j in range(spec.N)
    )
    return Measurement(strategy=Strategy.ME, xi=0.0, elements=elements)


def build_two_step_measurements(
    spec: DetectorSpec, params: SeparationParams
) -> tuple[Measurement, Measurement]:
    """The standard and the concatenated measurement from given separation data.

    ME on the successful branch gives the N rank-1 conclusive elements
    ``c0..c{N-1}`` of both, ME on the failure branch N rank-1 failure
    elements. The concatenated measurement keeps these as ``fc0..fc{N-1}``;
    the standard one discards which of them fired, so its inconclusive
    element ``f`` is their sum. The failure elements are identically zero
    when the coefficients are uniform (no failure branch) and at xi = 0
    (separation never fails).
    """
    _check_povm_size(spec)
    rows = _profile_states(spec, params.p_success, params.success_profile)
    conclusive = tuple((f"c{j}", _rank_one(row)) for j, row in enumerate(rows))
    if params.failure_profile is None:
        zero = np.zeros((spec.N, spec.N), dtype=complex)
        zero.setflags(write=False)
        failures = [zero] * spec.N
    else:
        rows = _profile_states(spec, params.p_fail, params.failure_profile)
        failures = [_rank_one(row) for row in rows]
    fail = sum(failures)
    fail.setflags(write=False)
    standard = conclusive + (("f", fail),)
    concatenated = conclusive + tuple((f"fc{j}", matrix) for j, matrix in enumerate(failures))
    return (
        Measurement(strategy=Strategy.FRIO_STANDARD, xi=params.xi, elements=standard),
        Measurement(strategy=Strategy.FRIO_CONCATENATED, xi=params.xi, elements=concatenated),
    )


def build_frio_standard(spec: DetectorSpec, xi: float) -> Measurement:
    """Separation-then-ME measurement with the failure branch discarded.

    N rank-1 conclusive elements plus one inconclusive element. At xi = 0 the
    inconclusive element vanishes and the measurement reduces to
    :func:`build_me_measurement`.
    """
    return build_two_step_measurements(spec, separation_params(spec, xi))[0]


def build_frio_concatenated(spec: DetectorSpec, xi: float) -> Measurement:
    """Separation-then-ME on both branches: 2N rank-1 elements, whose
    failure-branch elements sum to the inconclusive element of
    :func:`build_frio_standard`."""
    return build_two_step_measurements(spec, separation_params(spec, xi))[1]


def _spectrum(spec: DetectorSpec, profile: np.ndarray) -> np.ndarray:
    """``|sum_k a_k * profile_k * w^{-kl}|^2`` for l = 0..N-1 via the FFT."""
    padded = np.zeros(spec.N, dtype=float)
    padded[list(spec.support.indices)] = spec.amplitudes * profile
    return np.abs(np.fft.fft(padded)) ** 2


def conditional_conclusive(spec: DetectorSpec, xi: float) -> np.ndarray:
    """Closed-form conditional state distribution given conclusive outcome 0.

    Conditionals for outcome j follow by the cyclic shift ``l -> l - j``.
    Sums to 1.
    """
    return _spectrum(spec, separation_params(spec, xi).success_profile)


def conditional_failure(spec: DetectorSpec) -> np.ndarray | None:
    """Closed-form conditional distribution given failure-branch outcome 0.

    Independent of the separation level. ``None`` when the failure branch is
    absent (uniform coefficients) or carries no amplitude: when every
    coefficient lies within ``MIN_COEFF_CLAMP_ATOL`` of the minimum, the
    clamp zeroes the whole profile and there is no distribution to normalize.
    """
    profile = separation_params(spec, 0.0).failure_profile
    if profile is None or not profile.any():
        return None
    spectrum = _spectrum(spec, profile)
    # The profile formula cancels (p_k - p_min) against (1 - n*p_min); for
    # nearly uniform coefficients both are tiny and the float sum drifts off
    # 1 by ~eps/(1 - n*p_min), so renormalize to the exact analytic sum.
    return spectrum / spectrum.sum()


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """Outcome probabilities and per-outcome conditional state distributions.

    ``conditionals[label]`` is ``None`` when the outcome probability is below
    ``UNDEFINED_OUTCOME_ATOL`` (the conditional is undefined).
    """

    outcome_probs: dict[str, float]
    conditionals: dict[str, np.ndarray | None]


def oracle_outcome_table(sym_set: SymmetricSet, measurement: Measurement) -> OutcomeTable:
    """Evaluate a measurement against explicit state vectors.

    Computes ``p_j = Tr(E_j rho)`` with ``rho`` assembled from the N state
    projectors, and conditionals ``<state_l| E_j |state_l> / (N p_j)``. Pure
    matrix arithmetic, no closed forms; this is the independent cross-check
    for every probability formula in this module.
    """
    states = sym_set.states
    n_paths = states.shape[0]
    if measurement.dim != n_paths:
        raise ValidationError(
            f"measurement dimension {measurement.dim} does not match state "
            f"dimension {n_paths}"
        )
    rho = states.T @ states.conj() / n_paths
    outcome_probs: dict[str, float] = {}
    conditionals: dict[str, np.ndarray | None] = {}
    for label, matrix in measurement.elements:
        prob = float(np.trace(matrix @ rho).real)
        outcome_probs[label] = prob
        if prob < UNDEFINED_OUTCOME_ATOL:
            conditionals[label] = None
            continue
        quad = np.einsum("lk,kj,lj->l", states.conj(), matrix, states).real
        conditionals[label] = quad / (n_paths * prob)
    return OutcomeTable(outcome_probs=outcome_probs, conditionals=conditionals)


def measurement_to_json_dict(measurement: Measurement) -> dict:
    """JSON form: strategy, xi, and per-element label plus row-major matrix
    entries as ``[re, im]`` pairs."""
    return {
        "strategy": measurement.strategy.value,
        "xi": measurement.xi,
        "N": measurement.dim,
        "elements": [
            {
                "label": label,
                "matrix": [[[z.real, z.imag] for z in row] for row in matrix],
            }
            for label, matrix in measurement.elements
        ],
    }
