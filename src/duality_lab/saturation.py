"""Discrete-Fourier analysis of duality saturation.

A scenario saturates the minimum-error duality relation exactly when the
entropies of its coefficient distribution and of the squared-modulus DFT
spectrum add up to log2(N). The support-size product of a DFT pair is
bounded below by N (discrete uncertainty principle), the bound is attained
only by uniform coefficients on an equally spaced support, and the number of
subspace dimensions admitting nontrivial saturation is the divisor count of
N minus the two trivial ones. This module builds those supports, detects
saturation, classifies support structures, and brute-force scans all uniform
scenarios of a given path count.

The scan runs in blocks: :func:`census_blocks` evaluates up to
``states.BLOCK_ROWS`` supports of one dimension per batched FFT and entropy
call, and :func:`write_saturation_csv` writes each block's CSV rows, joined
in one call, so a census streams to CSV in memory that does not grow with N.
A block formats each distinct entropy sum once: the sums of uniform supports
take few values (715 in the 65,535 rows of N = 16).
The scalar functions (:func:`dft_distribution`, :func:`is_saturating`,
:func:`saturation_report`) evaluate one scenario through the same spectrum
arithmetic and are the reference the blocks are tested against;
:func:`saturation_scan` is that reference for a whole census, one
:func:`saturation_report` per support.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .duality import shannon_entropies, shannon_entropy
from .states import (
    EVAL_BLOCK_ENTRIES,
    DetectorSpec,
    Support,
    SweepBlock,
    ValidationError,
    _cyclic_gaps,
    _embed,
    build_symmetric_set,
    check_path_count,
    is_int,
    uniform_block,
    uniform_spec,
    uniform_supports,
)

__all__ = [
    "SupportStructure",
    "SaturationReport",
    "CensusBlock",
    "census_blocks",
    "dft_distribution",
    "saturating_spec",
    "is_saturating",
    "classify_support",
    "saturating_dimensions",
    "saturation_scan",
    "saturation_report",
    "schmidt_coefficients",
    "write_saturation_csv",
    "SATURATION_CSV_HEADER",
]

# |spectrum|^2 entries above this count toward the spectrum support; exact
# zeros from root-of-unity cancellation sit at ~1e-33 after squaring.
SPECTRUM_SUPPORT_ATOL = 1e-12

# Entropy sums within this of log2(N) count as saturating. Entropy is flat
# near its maximum, so this is looser than the matrix tolerances but far
# below the gap to the nearest non-saturating uniform support.
SATURATION_ATOL = 1e-9

# Enumeration budget: a full scan visits 2^N - 1 supports.
SCAN_MAX_PATHS = 24

# Divisor budget: trial division up to sqrt(N) takes 2^20 steps (0.1 s) here.
DIVISOR_MAX_PATHS = 1 << 40


class SupportStructure(str, Enum):
    """Cyclic-gap classification of a support."""

    EQUALLY_SPACED = "equally-spaced"
    UNEQUALLY_SPACED_ADJACENT = "unequally-spaced-adjacent"
    UNEQUALLY_SPACED_NONADJACENT = "unequally-spaced-nonadjacent"
    OTHER = "other"


def dft_distribution(spec: DetectorSpec) -> np.ndarray:
    """Squared-modulus DFT spectrum of the amplitude vector, as probabilities.

    Entry ``l`` is ``|sum_k a_k w^{kl}|^2 / N``. For real positive amplitudes
    this equals the xi = 0 conclusive conditional distribution entry by entry,
    and always sums to 1 (the amplitude vector is unit norm).
    """
    return _dft(spec.N, spec.support.indices, spec.amplitudes)


def _dft(n_paths: int, indices, amps: np.ndarray) -> np.ndarray:
    """:func:`dft_distribution` of one amplitude row (1-D) or of each row of a
    block (2-D)."""
    # Not merged with measurements._spectrum (forward FFT, amplitudes times
    # profile): the two differ in the last bit on most supports, so either
    # merge would change the census CSV or the scan CSV.
    return np.abs(np.fft.ifft(_embed(n_paths, indices, amps)) * math.sqrt(n_paths)) ** 2


def saturating_spec(N: int, m: int, tau: int) -> DetectorSpec:
    """Uniform scenario on the equally spaced support ``{tau + kappa*m}``.

    Requires ``m`` to divide ``N`` and ``0 <= tau < m``; the support has
    ``n = N/m <= EVAL_BLOCK_ENTRIES`` indices with spacing ``m``, and the
    induced symmetric states attain the uncertainty-principle bound: their
    spectrum has exactly ``m`` nonzero entries, each equal to ``n/N``.
    """
    check_path_count(N)
    if not is_int(m) or m < 1 or N % m != 0 or N // m > EVAL_BLOCK_ENTRIES:
        raise ValidationError(f"spacing {m!r} must divide {N}, with N/m <= {EVAL_BLOCK_ENTRIES}")
    if not is_int(tau) or not 0 <= tau < m:
        raise ValidationError(f"offset must satisfy 0 <= tau < {m}, got {tau!r}")
    n = N // m
    return uniform_spec(N, tuple(tau + kappa * m for kappa in range(n)))


def is_saturating(spec: DetectorSpec) -> tuple[bool, float]:
    """Whether the coefficient and spectrum entropies add up to log2(N).

    Returns ``(saturating, entropy_sum)``; the sum can never fall below
    log2(N) beyond roundoff, so the check is a two-sided tolerance.
    """
    return _saturation_verdict(spec, dft_distribution(spec))


def _saturation_verdict(spec: DetectorSpec, lambda_sq: np.ndarray) -> tuple[bool, float]:
    entropy_sum = shannon_entropy(spec.probabilities) + shannon_entropy(lambda_sq)
    return _saturates(entropy_sum, spec.N), entropy_sum


def _saturates(entropy_sum, N: int):
    """The saturation test, for one entropy sum or an array of them."""
    return abs(entropy_sum - math.log2(N)) <= SATURATION_ATOL


def classify_support(support: Support) -> SupportStructure:
    """Classify a support by its cyclic gap multiset.

    Equal gaps (possible only when n divides N) are EQUALLY_SPACED. Otherwise
    one contiguous cyclic run (exactly one gap above 1) is ADJACENT, no two
    cyclically adjacent indices (every gap at least 2) is NONADJACENT, and
    anything mixed is OTHER; with two indices that is the unit-gap test.
    """
    return _STRUCTURES[int(_structure_codes(support.N, np.array([support.indices]))[0])]


_STRUCTURES = tuple(SupportStructure)

# Census CSV cells of the saturation flag and the structure, by value.
_FLAG_CELLS = np.array([",false,", ",true,"], dtype=object)
_STRUCTURE_CELLS = np.array([f"{structure.value}\n" for structure in _STRUCTURES], dtype=object)


def _structure_codes(N: int, indices: np.ndarray) -> np.ndarray:
    """:func:`classify_support` for one support per row of a ``(rows, n)``
    index array, as positions in ``_STRUCTURES``."""
    gaps = _cyclic_gaps(N, indices)
    equal = (gaps == gaps[:, :1]).all(axis=1)
    adjacent = (gaps > 1).sum(axis=1) == 1
    nonadjacent = gaps.min(axis=1) >= 2
    return np.select([equal, adjacent, nonadjacent], [0, 1, 2], default=3)


def saturating_dimensions(N: int) -> tuple[list[int], int]:
    """Subspace dimensions admitting nontrivial saturation, plus their count.

    These are the divisors of N strictly between 1 and N, in ascending order;
    the count equals the divisor count of N minus 2, so it is zero exactly
    for prime N.
    """
    check_path_count(N)
    if N > DIVISOR_MAX_PATHS:
        raise ValidationError(f"divisors are searched for N <= {DIVISOR_MAX_PATHS}, got N = {N}")
    small = [d for d in range(1, math.isqrt(N) + 1) if N % d == 0]  # trial division
    divisors = small + [N // d for d in reversed(small) if d * d != N]
    return [d for d in divisors if 1 < d < N], len(divisors) - 2


@dataclass(frozen=True, eq=False)
class SaturationReport:
    """Spectrum support data and the saturation verdict for one scenario."""

    spec: DetectorSpec
    lambda_sq: np.ndarray
    support_size: int
    lambda_support_size: int
    bound_ok: bool
    entropy_sum: float
    saturating: bool
    structure: SupportStructure


def saturation_report(spec: DetectorSpec) -> SaturationReport:
    """Spectrum, support sizes, uncertainty bound, and saturation flag."""
    lambda_sq = dft_distribution(spec)
    lambda_support = int((lambda_sq > SPECTRUM_SUPPORT_ATOL).sum())
    saturating, entropy_sum = _saturation_verdict(spec, lambda_sq)
    return SaturationReport(
        spec=spec,
        lambda_sq=lambda_sq,
        support_size=spec.n,
        lambda_support_size=lambda_support,
        bound_ok=spec.n * lambda_support >= spec.N,
        entropy_sum=entropy_sum,
        saturating=saturating,
        structure=classify_support(spec.support),
    )


@dataclass(frozen=True, eq=False)
class CensusBlock:
    """Census results for consecutive uniform supports of one dimension.

    Row ``i`` of each array holds what :func:`saturation_report` gives for
    ``uniform_spec(N, indices[i])``, bit for bit.
    """

    N: int
    n: int
    indices: np.ndarray  # (rows, n) support indices, in lexicographic order
    lambda_sq: np.ndarray  # (rows, N) squared-modulus DFT spectra
    lambda_support: np.ndarray  # (rows,) spectrum support sizes
    entropy_sum: np.ndarray  # (rows,) coefficient plus spectrum entropy
    saturating: np.ndarray  # (rows,) bool
    structure: np.ndarray  # (rows,) positions in _STRUCTURES

    def csv_lines(self) -> str:
        """The block's census CSV lines, one per row: the only place the row
        format is defined.

        Every field is one string cell that carries the separator after it
        (the entropy sum's comma rides ahead of the flag), and the text is one
        ``str.join`` over the cells in row order: built in one C-level call
        and allocated once, at its final size. (One ``%`` call on the row
        template repeated per row reallocates its output as it grows, which
        fragments the heap across blocks and is slower.)

        The entropy cell is ``repr`` of the row's float, formatted once per
        distinct value of the block: few sums recur across many supports
        (160 distinct in the 4,095 rows of N = 12). Values are told apart by
        their bit pattern, so ``-0.0`` keeps its own text apart from ``0.0``.
        """
        rows, n = self.indices.shape
        dashed = np.array([f"{i}-" for i in range(self.N)], dtype=object)
        ended = np.array([f"{i}," for i in range(self.N + 1)], dtype=object)
        cells = np.empty((rows, n + 5), dtype=object)
        cells[:, 0] = f"{self.N},{n},"
        cells[:, 1:n] = dashed[self.indices[:, :-1]]
        cells[:, n] = ended[self.indices[:, -1]]
        cells[:, n + 1] = ended[self.lambda_support]
        sums, inverse = np.unique(self.entropy_sum.view(np.uint64), return_inverse=True)
        texts = np.array(list(map(repr, sums.view(np.float64).tolist())), dtype=object)
        cells[:, n + 2] = texts[inverse]
        cells[:, n + 3] = _FLAG_CELLS[self.saturating.astype(np.intp)]
        cells[:, n + 4] = _STRUCTURE_CELLS[self.structure]
        return "".join(cells.ravel().tolist())


def census_blocks(N: int) -> Iterator[CensusBlock]:
    """The census of all 2^N - 1 uniform scenarios, as a stream of blocks.

    Blocks hold at most ``states.BLOCK_ROWS`` supports of one dimension and
    come in (dimension, lexicographic) order. ``N`` is checked against the scan
    budget here, before the first block is asked for.
    """
    _check_scan_budget(N)
    supports = (rows for n in range(1, N + 1) for rows in uniform_supports(N, n))
    return (_census_block(uniform_block(N, rows)) for rows in supports)


def _check_scan_budget(N: int) -> None:
    check_path_count(N)
    if N > SCAN_MAX_PATHS:
        raise ValidationError(
            f"scan budget exceeded: N = {N} enumerates 2^{N} - 1 supports "
            f"(limit N <= {SCAN_MAX_PATHS})"
        )


def _census_block(block: SweepBlock) -> CensusBlock:
    """One batched FFT and one batched entropy call for a block of uniform
    supports, with the arithmetic of :func:`saturation_report`. All rows
    share one amplitude row and so one coefficient entropy."""
    lambda_sq = _dft(block.N, block.indices, block.amps)
    entropy_sum = shannon_entropy(block.amps[0] ** 2) + shannon_entropies(lambda_sq)
    return CensusBlock(
        N=block.N,
        n=block.n,
        indices=block.indices,
        lambda_sq=lambda_sq,
        lambda_support=(lambda_sq > SPECTRUM_SUPPORT_ATOL).sum(axis=1),
        entropy_sum=entropy_sum,
        saturating=_saturates(entropy_sum, block.N),
        structure=_structure_codes(block.N, block.indices),
    )


def saturation_scan(N: int) -> list[SaturationReport]:
    """Reports for every uniform scenario of every subspace dimension.

    Visits all 2^N - 1 supports in (dimension, lexicographic) order; the
    saturating ones are exactly the equally spaced supports whose dimension
    divides N. One :func:`saturation_report` per support, all kept: the
    census's scalar reference for small N; :func:`census_blocks` streams.
    """
    _check_scan_budget(N)
    supports = (row for n in range(1, N + 1) for rows in uniform_supports(N, n) for row in rows)
    return [saturation_report(uniform_spec(N, row.tolist())) for row in supports]


def schmidt_coefficients(spec: DetectorSpec) -> np.ndarray:
    """Singular values of the joint path/detector amplitude matrix.

    The matrix has entry ``states[l, k] / sqrt(N)`` and its singular values
    are the Schmidt coefficients of the post-interaction pure state. For
    saturating scenarios exactly n of them equal ``1/sqrt(n)``.
    """
    return np.linalg.svd(build_symmetric_set(spec) / math.sqrt(spec.N), compute_uv=False)


SATURATION_CSV_HEADER = ["N", "n", "support", "lambda_support", "entropy_sum", "saturating", "structure"]


def write_saturation_csv(blocks, fileobj) -> None:
    """Write :class:`CensusBlock` rows as CSV (header included, LF line
    endings); ``write_saturation_csv(census_blocks(N), f)`` streams the census."""
    fileobj.write(",".join(SATURATION_CSV_HEADER) + "\n")
    for block in blocks:
        fileobj.write(block.csv_lines())
