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

:func:`oracle_arrays` evaluates a stack of POVM elements against the explicit
state vectors with plain complex matrix arithmetic, and
:func:`oracle_outcome_table` is its per-label view of one measurement. The
oracle shares no code with the closed-form probability expressions and
serves as their cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import (
    DetectorSpec,
    SymmetricSet,
    ValidationError,
    _embed,
    _is_uniform,
    _read_only,
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
    "OracleArrays",
    "oracle_arrays",
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
    return _separations(spec, (xi,))[0]


def _separations(spec: DetectorSpec, levels) -> tuple[SeparationParams, ...]:
    """:func:`separation_params` at each of ``levels``, from one array
    expression; the failure profile does not depend on the level."""
    xi = np.array([_level(value) for value in levels])
    probs = spec.probabilities
    profiles, p_success = _success(probs, xi[:, None], spec.N)
    failure = None if spec.is_uniform else _failure_profile(spec.amplitudes, probs, spec.N)
    return tuple(
        SeparationParams(level, p, 1.0 - p, profile, failure)
        for level, p, profile in zip(xi.tolist(), p_success.ravel().tolist(), profiles)
    )


def _level(xi) -> float:
    """The separation level rule: a float in [0, 1], not a bool; -0.0 reads as 0.0."""
    if isinstance(xi, (bool, np.bool_)):
        raise ValidationError(f"separation level must be a number in [0, 1], got {xi!r}")
    try:
        xi = float(xi)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"separation level must be a number in [0, 1], got {xi!r}") from exc
    if not 0.0 <= xi <= 1.0:
        raise ValidationError(f"separation level must lie in [0, 1], got {xi!r}")
    return xi + 0.0  # -0.0 + 0.0 is 0.0; every other level is unchanged


def _success(probs: np.ndarray, xi, n_paths: int):
    """Success profile and success probability at level ``xi``, for one row
    of squared coefficients (1-D) or each row of a block (2-D); ``xi`` may be
    a column of levels for one row. The probability is exactly 1 on uniform
    rows."""
    n = probs.shape[-1]
    p_min = probs.min(axis=-1)
    profile = np.sqrt((1.0 - xi + xi / (n * probs)) / n_paths)
    return profile, np.where(_is_uniform(probs), 1.0, n * p_min / ((1.0 - xi) * n * p_min + xi))


def _failure_profile(amps: np.ndarray, probs: np.ndarray, n_paths: int) -> np.ndarray:
    """Failure profile of one row (1-D) or each row of a block (2-D); every
    row must be non-uniform, or the formula divides by zero."""
    n = probs.shape[-1]
    p_min = probs.min(axis=-1, keepdims=True)
    h_sq = (probs - p_min) / ((1.0 - n * p_min) * n_paths * probs)
    h_sq[amps - amps.min(axis=-1, keepdims=True) <= MIN_COEFF_CLAMP_ATOL] = 0.0
    return np.sqrt(h_sq)


@dataclass(frozen=True, eq=False)
class Measurement:
    """A labeled POVM over the detector subspace.

    ``elements`` is one read-only ``[E, N, N]`` array of complex Hermitian
    matrices, and outcome ``i`` is ``labels[i]``. Labels are
    ``"c0".."c{N-1}"`` for conclusive outcomes, ``"fc0".."fc{N-1}"`` for
    conclusive-after-failure outcomes, and ``"f"`` for the inconclusive one.
    Elements are positive semidefinite and sum to the projector onto the
    support subspace.
    """

    strategy: Strategy
    xi: float
    labels: tuple[str, ...]
    elements: np.ndarray

    def element(self, label: str) -> np.ndarray:
        if label not in self.labels:
            raise KeyError(label)
        return self.elements[self.labels.index(label)]


def _profile_states(spec: DetectorSpec, scale: float, profile: np.ndarray) -> np.ndarray:
    """N measurement vectors as rows: ``sqrt(scale) * profile_k * w^{jk}`` on the
    support, zero elsewhere."""
    idx = list(spec.support.indices)
    rows = np.zeros((spec.N, spec.N), dtype=complex)
    rows[:, idx] = np.sqrt(scale) * profile * phase_table(spec.N)[:, idx]
    return rows


def _rank_ones(rows: np.ndarray) -> np.ndarray:
    """Read-only ``|row><row|`` of each row (``np.outer`` entry for entry), as one array."""
    return _read_only(rows[:, :, None] * rows.conj()[:, None, :])


def _labels(n_paths: int, *prefixes: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{j}" for prefix in prefixes for j in range(n_paths))


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
    return Measurement(Strategy.ME, 0.0, _labels(spec.N, "c"), _rank_ones(np.sqrt(weight) * u_rows))


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

    The outcome order is fixed: ``c0..c{N-1}, f`` for the standard
    measurement and ``c0..c{N-1}, fc0..fc{N-1}`` for the concatenated one.
    ``verify`` reads outcomes by position in this order.
    """
    _check_povm_size(spec)
    conclusive = _rank_ones(_profile_states(spec, params.p_success, params.success_profile))
    if params.failure_profile is None:
        failures = np.zeros_like(conclusive)
    else:
        failures = _rank_ones(_profile_states(spec, params.p_fail, params.failure_profile))
    # Each measurement owns its array; one shared stack per level would raise
    # verify's peak memory at N = 64.
    standard = _read_only(np.concatenate([conclusive, failures.sum(axis=0)[None]]))
    concatenated = _read_only(np.concatenate([conclusive, failures]))
    return (
        Measurement(Strategy.FRIO_STANDARD, params.xi, _labels(spec.N, "c") + ("f",), standard),
        Measurement(
            Strategy.FRIO_CONCATENATED, params.xi, _labels(spec.N, "c", "fc"), concatenated
        ),
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


def _spectrum(n_paths: int, indices, weights: np.ndarray) -> np.ndarray:
    """``|sum_k weights_k * w^{-kl}|^2`` for l = 0..N-1 via the FFT, of one
    weight row at its support indices (1-D) or of each row of a block (2-D)."""
    return np.abs(np.fft.fft(_embed(n_paths, indices, weights))) ** 2


def conditional_conclusive(spec: DetectorSpec, xi: float) -> np.ndarray:
    """Closed-form conditional state distribution given conclusive outcome 0.

    Conditionals for outcome j follow by the cyclic shift ``l -> l - j``.
    Sums to 1.
    """
    profile = separation_params(spec, xi).success_profile
    return _spectrum(spec.N, spec.support.indices, spec.amplitudes * profile)


def conditional_failure(spec: DetectorSpec) -> np.ndarray | None:
    """Closed-form conditional distribution given failure-branch outcome 0.

    Independent of the separation level. ``None`` when the failure branch is
    absent (uniform coefficients) or carries no amplitude: when every
    coefficient lies within ``MIN_COEFF_CLAMP_ATOL`` of the minimum, the
    clamp zeroes the whole profile and there is no distribution to normalize.
    """
    return _failure_spectrum(spec, separation_params(spec, 0.0).failure_profile)


def _failure_spectrum(spec: DetectorSpec, profile: np.ndarray | None) -> np.ndarray | None:
    """:func:`conditional_failure` from a ``failure_profile`` already computed
    by :func:`separation_params` (the profile does not depend on the level)."""
    if profile is None or not profile.any():
        return None
    return _normalized(_spectrum(spec.N, spec.support.indices, spec.amplitudes * profile))


def _normalized(spectra: np.ndarray) -> np.ndarray:
    """Failure spectra, one (1-D) or one per row (2-D), scaled to sum to 1.

    The profile formula cancels (p_k - p_min) against (1 - n*p_min); for
    nearly uniform coefficients both are tiny and the float sum drifts off
    1 by ~eps/(1 - n*p_min), so renormalize to the exact analytic sum.
    """
    return spectra / spectra.sum(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """Outcome probabilities and per-outcome conditional state distributions.

    ``conditionals[label]`` is ``None`` when the outcome probability is below
    ``UNDEFINED_OUTCOME_ATOL`` (the conditional is undefined).
    """

    outcome_probs: dict[str, float]
    conditionals: dict[str, np.ndarray | None]


@dataclass(frozen=True, eq=False)
class OracleArrays:
    """Outcome probabilities and conditionals of a stack of POVM elements.

    ``probs[e] = Tr(E_e rho)``. Row ``conditionals[e]`` is the distribution of
    the state label given outcome ``e``; it is undefined, and filled with
    NaN, where ``defined[e]`` is False because ``probs[e]`` lies below
    ``UNDEFINED_OUTCOME_ATOL``.
    """

    probs: np.ndarray
    conditionals: np.ndarray
    defined: np.ndarray


def oracle_arrays(sym_set: SymmetricSet, elements: np.ndarray) -> OracleArrays:
    """Evaluate a stack of POVM elements against explicit state vectors.

    Computes ``p_e = Tr(E_e rho)`` with ``rho`` assembled from the N state
    projectors, and conditionals ``<state_l| E_e |state_l> / (N p_e)``. Pure
    matrix arithmetic, no closed forms; this is the independent cross-check
    for every probability formula in this module. Each entry equals the one
    a per-element ``np.trace(E_e @ rho)`` and einsum would give, bit for bit.
    """
    states = sym_set.states
    n_paths = states.shape[0]
    if elements.shape[1:] != (n_paths, n_paths):
        raise ValidationError(
            f"measurement dimension {elements.shape[-1]} does not match state "
            f"dimension {n_paths}"
        )
    rho = states.T @ states.conj() / n_paths
    probs = np.trace(elements @ rho, axis1=1, axis2=2).real
    defined = probs >= UNDEFINED_OUTCOME_ATOL
    quad = np.einsum("lk,ekj,lj->el", states.conj(), elements, states).real
    conditionals = np.full(quad.shape, np.nan)
    np.divide(quad, (n_paths * probs)[:, None], out=conditionals, where=defined[:, None])
    return OracleArrays(probs=probs, conditionals=conditionals, defined=defined)


def oracle_outcome_table(sym_set: SymmetricSet, measurement: Measurement) -> OutcomeTable:
    """Per-label view of :func:`oracle_arrays` for one measurement."""
    arrays = oracle_arrays(sym_set, measurement.elements)
    labels = measurement.labels
    return OutcomeTable(
        outcome_probs=dict(zip(labels, arrays.probs.tolist())),
        conditionals={
            label: row if defined else None
            for label, row, defined in zip(labels, arrays.conditionals, arrays.defined)
        },
    )


def measurement_to_json_dict(measurement: Measurement) -> dict:
    """JSON form: strategy, xi, and per-element label plus row-major matrix
    entries as ``[re, im]`` pairs."""
    return {
        "strategy": measurement.strategy.value,
        "xi": measurement.xi,
        "N": measurement.elements.shape[-1],
        "elements": [
            {
                "label": label,
                "matrix": [[[z.real, z.imag] for z in row] for row in matrix],
            }
            for label, matrix in zip(measurement.labels, measurement.elements)
        ],
    }
