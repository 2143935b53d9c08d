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

Every measurement vector lies in the support subspace, so the block rules
behind the builders take the vectors in the support frame, as n entries on
the support indices, and an element is an n x n block. The public builders
embed the vectors in the full N-dimensional detector space before forming
the rank-1 elements, so their N x N matrices hold exact (signed) zeros off
the support block, and completeness holds relative to the support-subspace
projector, not the full identity. ``verify`` checks the n x n blocks, which
sum to the n x n identity.

:func:`oracle_arrays` evaluates a stack of POVM elements against the explicit
state vectors, an array of rows such as the ``[N, N]`` array of
``states.build_symmetric_set``, with plain complex matrix arithmetic, in
either frame, and
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
    ValidationError,
    _embed,
    _is_uniform,
    _profile_states,
    _read_only,
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

# Largest path count the POVM builders and ``verify`` accept. A builder
# returns up to 2N + 1 dense N x N complex matrices; ``verify`` checks their
# n x n support blocks, 3N + 1 per level. The tolerances below are set for
# this size.
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
    xi = _level(xi)
    profile, p_success = _success(spec.probabilities, xi, spec.N)
    failure, branch = _failure_profile(spec.amplitudes[None], spec.probabilities[None], spec.N)
    p_success, failure = float(p_success), failure[0] if branch[0] else None
    return SeparationParams(xi, p_success, 1.0 - p_success, profile, failure)


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
    """Success profiles and success probabilities of the rows of squared
    coefficients ``probs`` (last axis) at levels ``xi``, which broadcast
    against the rows: one level, a vector of levels for one row (1-D), or
    for every row of a block given as ``probs[:, None]``. The probability is
    exactly 1 on uniform rows."""
    n = probs.shape[-1]
    p_min = probs.min(axis=-1)
    level = np.asarray(xi)[..., None]
    profile = np.sqrt((1.0 - level + level / (n * probs)) / n_paths)
    return profile, np.where(_is_uniform(probs), 1.0, n * p_min / ((1.0 - xi) * n * p_min + xi))


def _failure_profile(amps: np.ndarray, probs: np.ndarray, n_paths: int):
    """Failure profiles of the rows of a block (2-D), and which rows have a
    failure branch: the non-uniform ones. A uniform row gets a zero profile,
    where the formula would divide by zero."""
    n = probs.shape[-1]
    branch = ~_is_uniform(probs)
    amps, live = amps[branch], probs[branch]
    p_min = live.min(axis=-1, keepdims=True)
    part = (live - p_min) / ((1.0 - n * p_min) * n_paths * live)
    part[amps - amps.min(axis=-1, keepdims=True) <= MIN_COEFF_CLAMP_ATOL] = 0.0
    h_sq = np.zeros(probs.shape)
    h_sq[branch] = part
    return np.sqrt(h_sq), branch


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


def _rank_ones(rows: np.ndarray) -> np.ndarray:
    """Read-only ``|row><row|`` of each row (``np.outer`` entry for entry):
    ``[..., N, m, m]`` from rows ``[..., N, m]``."""
    return _read_only(rows[..., :, None] * rows.conj()[..., None, :])


def _me_elements(n_paths: int, indices, embed: bool = False) -> np.ndarray:
    """The minimum-error elements ``[..., N, n, n]`` of one support (1-D) or
    of each row of a block of supports (2-D); ``[..., N, N, N]`` with
    ``embed`` (see :func:`_profile_states`)."""
    n = np.shape(indices)[-1]
    profile = np.full(np.shape(indices), 1.0 / np.sqrt(n))
    vectors = _profile_states(n_paths, indices, 1.0, profile, embed)
    return _rank_ones(np.sqrt(n / n_paths) * vectors)


def _two_step_elements(
    n_paths: int, indices, p_success, success, failure, branch, embed: bool = False
) -> np.ndarray:
    """The elements ``[..., 3N + 1, n, n]`` of one level's standard
    measurement (``c0..c{N-1}, f``) followed by its concatenated one
    (``c0..c{N-1}, fc0..fc{N-1}``), for one scenario or a block;
    ``[..., 3N + 1, N, N]`` with ``embed`` (see :func:`_profile_states`).

    ``success`` and ``failure`` are the profiles (last axis), ``p_success``
    the success probabilities and ``branch`` whether a failure branch exists;
    ``indices``, ``failure`` and ``branch`` broadcast against ``success``.
    Failure elements are zero without a branch.
    """
    conclusive = _rank_ones(_profile_states(n_paths, indices, p_success, success, embed))
    failures = _rank_ones(_profile_states(n_paths, indices, 1.0 - p_success, failure, embed))
    failures = np.where(np.asarray(branch)[..., None, None, None], failures, 0.0)
    lost = failures.sum(axis=-3, keepdims=True)
    return np.concatenate([conclusive, lost, conclusive, failures], axis=-3)


def _labels(n_paths: int, *prefixes: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{j}" for prefix in prefixes for j in range(n_paths))


def _two_step_labels(n_paths: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Outcome labels of a level's standard and concatenated measurement."""
    return _labels(n_paths, "c") + ("f",), _labels(n_paths, "c", "fc")


def _check_povm_size(spec: DetectorSpec) -> None:
    if spec.N > MAX_POVM_PATHS:
        raise ValidationError(
            f"POVMs are built for at most {MAX_POVM_PATHS} paths, got N = {spec.N}"
        )


def build_me_measurement(spec: DetectorSpec) -> Measurement:
    """Square-root (minimum-error) measurement: N elements ``(n/N) |u_j><u_j|``,
    with ``u_j`` the uniform-profile vectors."""
    _check_povm_size(spec)
    elements = _me_elements(spec.N, spec.support.indices, embed=True)
    return Measurement(Strategy.ME, 0.0, _labels(spec.N, "c"), elements)


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
    ``verify`` builds the same elements, as n x n support blocks, for blocks
    of scenarios through the same rule and reads outcomes by position in
    this order.
    """
    _check_povm_size(spec)
    branch = params.failure_profile is not None
    failure = params.failure_profile if branch else np.zeros(spec.n)
    elements = _read_only(
        _two_step_elements(
            spec.N, spec.support.indices, params.p_success, params.success_profile, failure,
            branch, embed=True,
        )  # fmt: skip
    )
    standard, concatenated = _two_step_labels(spec.N)
    return (
        Measurement(Strategy.FRIO_STANDARD, params.xi, standard, elements[: spec.N + 1]),
        Measurement(Strategy.FRIO_CONCATENATED, params.xi, concatenated, elements[spec.N + 1 :]),
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
    amps = spec.amplitudes[None]
    profile = _failure_profile(amps, spec.probabilities[None], spec.N)[0]
    live, spectra = _failure_spectra(spec.N, np.array([spec.support.indices]), amps, profile)
    return spectra[0] if live[0] else None


def _failure_spectra(n_paths: int, indices, amps: np.ndarray, profile: np.ndarray):
    """:func:`conditional_failure` of each row of a block from its failure
    profile (see :func:`_failure_profile`): which rows have a distribution
    (a nonzero profile), and those rows' distributions.

    The profile formula cancels (p_k - p_min) against (1 - n*p_min); for
    nearly uniform coefficients both are tiny and the float sum drifts off
    1 by ~eps/(1 - n*p_min), so each spectrum is scaled to sum to exactly 1.
    """
    live = profile.any(axis=-1)
    spectra = _spectrum(n_paths, indices[live], amps[live] * profile[live])
    return live, spectra / spectra.sum(axis=-1, keepdims=True)


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


def oracle_arrays(states: np.ndarray, elements: np.ndarray) -> OracleArrays:
    """Evaluate a stack of POVM elements against explicit state vectors.

    ``states`` is one scenario's N states as rows ``[N, m]``, with elements
    ``[E, m, m]``; or a stack of scenarios' states ``[S, N, m]``, with
    elements ``[S, E, m, m]`` and results ``[S, E, ...]``. The frame is
    ``m = N`` for the detector space and ``m = n`` for the support frame.
    Computes ``p_e = Tr(E_e rho)`` with ``rho`` assembled from the N state
    projectors, as the sum of ``E_e * rho^T``, and conditionals
    ``<state_l| E_e |state_l> / (N p_e)``, from one matrix product of the
    states with each element. Pure matrix arithmetic, no closed forms; this
    is the independent cross-check for every probability formula in this
    module.
    """
    n_paths, m = states.shape[-2:]
    if elements.shape[:-3] != states.shape[:-2] or elements.shape[-2:] != (m, m):
        raise ValidationError(
            f"measurement elements of shape {elements.shape} do not match states "
            f"of shape {states.shape}"
        )
    rho = states.mT @ states.conj() / n_paths
    # A C-ordered product sums each trace in one order, whatever the layout
    # of ``elements`` and however many of them are stacked.
    probs = np.multiply(elements, rho[..., None, :, :].mT, order="C").sum(axis=(-2, -1)).real
    defined = probs >= UNDEFINED_OUTCOME_ATOL
    rows = states[..., None, :, :]
    quad = ((rows.conj() @ elements) * rows).sum(axis=-1).real
    conditionals = np.full(quad.shape, np.nan)
    np.divide(quad, (n_paths * probs)[..., None], out=conditionals, where=defined[..., None])
    return OracleArrays(probs=probs, conditionals=conditionals, defined=defined)


def oracle_outcome_table(states: np.ndarray, measurement: Measurement) -> OutcomeTable:
    """Per-label view of :func:`oracle_arrays` for one measurement, against
    one scenario's states ``[N, N]`` (see ``states.build_symmetric_set``)."""
    arrays = oracle_arrays(states, measurement.elements)
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
