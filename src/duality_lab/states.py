"""Interferometer scenarios: path supports, detector coefficients, and the
symmetric detector-state families they induce.

A scenario on N paths is fixed by a support (the computational-basis indices
carrying amplitude), one strictly positive amplitude per support index, and
the diagonal root-of-unity phase action that generates the N detector states
from the fiducial one. Everything downstream (discrimination measurements,
entropic quantifiers, saturation analysis) consumes these types; all of them
are immutable after construction. The N detector states themselves are no
type of their own: :func:`build_symmetric_set` returns them as the rows of
one read-only ``[N, N]`` array, the array the measurement oracle takes. Sweeps
hold many scenarios of one (N, n) as a :class:`SweepBlock` of arrays. Each
rule is written once, on rows: a scalar type checks its one row through the
same functions the block builders apply to every row.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ValidationError",
    "Support",
    "DetectorSpec",
    "SweepBlock",
    "block_from_probabilities",
    "block_from_specs",
    "build_symmetric_set",
    "enumerate_uniform_specs",
    "uniform_block",
    "uniform_spec",
    "spec_from_probabilities",
    "spec_to_json_dict",
    "support_label",
    "spec_from_json_dict",
    "is_int",
    "check_path_count",
    "check_dimension",
    "uniform_supports",
    "BLOCK_ROWS",
    "EVAL_BLOCK_ENTRIES",
]

# Squared amplitudes summing to 1 within NORM_REPAIR_ATOL are rescaled to
# sum to 1; anything worse is rejected.
NORM_REPAIR_ATOL = 1e-9

# Below this, 1 - n * min(a_k^2) is treated as exactly zero: the coefficients
# are uniform and the separation failure branch does not exist.
DEGENERATE_FAILURE_ATOL = 1e-12

# Smallest accepted squared coefficient, the smallest normal float: the
# separation formulas divide by it, and its reciprocal is still finite.
PROBABILITY_FLOOR = sys.float_info.min

# Rows per array block: sweep chunks, evaluation slices and census blocks
# all hold at most this many scenarios, so their memory stays a few MB.
BLOCK_ROWS = 4096

# The most zero-padded spectrum entries (rows x N) one evaluation slice may
# hold: 2^18 complex entries take 4 MiB, so a slice's arrays stay a few MB at
# any path count. It is also the most paths a sweep, an enumeration or a spectrum takes.
EVAL_BLOCK_ENTRIES = 1 << 18

# The most paths a dense N x N array takes (build_symmetric_set): 64 MiB of complex entries.
DENSE_MAX_PATHS = 1 << 11


class ValidationError(ValueError):
    """Raised when an input violates a documented invariant."""


def is_int(value) -> bool:
    """True for a Python integer that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_path_count(N) -> None:
    """The path-count rule: an integer N >= 2."""
    if not is_int(N) or N < 2:
        raise ValidationError(f"path count must be an integer >= 2, got {N!r}")


def check_dimension(n, N: int) -> None:
    """The subspace-dimension rule: an integer n with 1 <= n <= N."""
    if not is_int(n) or not 1 <= n <= N:
        raise ValidationError(f"subspace dimension must satisfy 1 <= n <= {N}, got {n!r}")


def _check_path_limit(N: int, dense: bool = False) -> None:
    """The size rule of spectra (N <= ``EVAL_BLOCK_ENTRIES``) or, with ``dense``,
    of N x N arrays (N <= ``DENSE_MAX_PATHS``), before anything is allocated."""
    limit, kind = (DENSE_MAX_PATHS, "dense arrays") if dense else (EVAL_BLOCK_ENTRIES, "spectra")
    if N > limit:
        raise ValidationError(f"{kind} take at most {limit} paths, got N = {N}")


def _as_index(value) -> int:
    """A support index as an int: Python and numpy integers, and floats with
    an integral value. Bools, strings and other floats are rejected rather
    than truncated."""
    if is_int(value) or isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValidationError(f"support indices must be integers, got {value!r}")


@dataclass(frozen=True)
class Support:
    """Strictly increasing basis indices in ``{0, ..., N-1}`` carrying amplitude.

    Cyclic shifts of a support are distinct values on purpose: enumeration
    keeps all of them and any deduplication happens at the analysis layer.
    """

    N: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(_as_index(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        _support_rows(self.N, [idx])

    @property
    def n(self) -> int:
        """Number of support indices (dimension of the spanned subspace)."""
        return len(self.indices)

    def cyclic_gaps(self) -> tuple[int, ...]:
        """Gaps between cyclically consecutive indices; the multiset sums to N."""
        return tuple(_cyclic_gaps(self.N, np.array([self.indices]))[0].tolist())


def _cyclic_gaps(N: int, indices: np.ndarray) -> np.ndarray:
    """:meth:`Support.cyclic_gaps` of each row of a ``(rows, n)`` index array."""
    # Gaps are at most N, so wrapped intp sums still give them exactly; an N
    # beyond intp does not convert, and the gaps are taken on Python ints.
    if N > np.iinfo(np.intp).max:
        indices = indices.astype(object)
    return np.diff(indices, axis=1, append=indices[:, :1] + N)


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
        coeffs = np.array([[_real(c, "coefficients") for c in self.coeffs]])
        if coeffs.shape[1] != self.support.n:
            raise ValidationError(
                f"need one coefficient per support index: got {coeffs.shape[1]} "
                f"for support of size {self.support.n}"
            )
        object.__setattr__(self, "coeffs", tuple(_validated(coeffs)[0].tolist()))

    @property
    def N(self) -> int:
        return self.support.N

    @property
    def n(self) -> int:
        return self.support.n

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """Amplitudes over the support, as a read-only float array."""
        return _read_only(np.array(self.coeffs))

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Squared amplitudes over the support (the detector's reduced diagonal)."""
        return _read_only(self.amplitudes**2)

    @cached_property
    def min_probability(self) -> float:
        """Smallest squared amplitude."""
        return float(self.probabilities.min())

    @property
    def is_uniform(self) -> bool:
        """True when every squared amplitude equals 1/n within tolerance.

        Uniform coefficients admit no overlap-reducing separation, so the
        failure branch of the two-step measurements is absent.
        """
        return bool(_is_uniform(self.probabilities))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _is_uniform(probabilities: np.ndarray):
    """The uniformity test of :attr:`DetectorSpec.is_uniform`, for one row of
    squared coefficients (1-D) or each row of a block (2-D)."""
    n = probabilities.shape[-1]
    return 1.0 - n * probabilities.min(axis=-1) <= DEGENERATE_FAILURE_ATOL


def build_symmetric_set(spec: DetectorSpec) -> np.ndarray:
    """The N symmetric detector states of a scenario, as the rows of one
    read-only ``[N, N]`` complex array, one row per interferometer path.

    State ``l`` has amplitude ``a_k * exp(2j*pi*k*l/N)`` on each support
    index ``k`` and zero elsewhere; every state is unit norm. State ``l`` is
    the ``l``-fold phase action applied to state 0, so the Gram matrix
    ``states.conj() @ states.T`` is circulant.
    """
    states = _profile_states(spec.N, spec.support.indices, 1.0, spec.amplitudes, embed=True)
    return _read_only(states)


def _profile_states(n_paths: int, indices, scale, profile, embed: bool = False) -> np.ndarray:
    """N vectors in the support frame, as rows ``[..., N, n]``: entry ``k``
    of row ``j`` is ``sqrt(scale) * profile_k * w^{jk}`` for support index
    ``indices[k]``; the vectors are zero off the support. ``profile`` holds
    one row (1-D) or one per scenario and level (any leading axes), with
    which ``indices`` and ``scale`` broadcast. With the amplitudes as profile
    and scale 1 the rows are the detector states; the measurement vectors
    take other profiles. With ``embed`` the same vectors come in the
    detector space, as rows ``[..., N, N]`` (see :func:`_embed`)."""
    _check_path_limit(n_paths, dense=True)
    grid = np.multiply.outer(np.asarray(indices), np.arange(n_paths))
    phases = np.swapaxes(np.exp(2j * np.pi * grid / n_paths), -1, -2)
    rows = (np.sqrt(scale)[..., None] * profile)[..., None, :] * phases
    return _embed(n_paths, np.asarray(indices)[..., None, :], rows) if embed else rows


@dataclass(frozen=True, eq=False)
class SweepBlock:
    """Scenarios of one path count and one subspace dimension, as arrays.

    Row ``i`` is the scenario ``DetectorSpec(Support(N, indices[i]),
    coeffs[i])``: ``coeffs`` holds the coefficients the row was built from
    and ``amps`` its validated amplitudes, that spec's ``coeffs`` bit for bit.
    Build blocks with :func:`block_from_probabilities`, :func:`uniform_block`
    or :func:`block_from_specs`. ``duality.evaluate_block`` fills the result
    columns: ``coherence`` per row, and ``knowledge`` and ``duality_sum`` with
    one column per (strategy, xi) pair of ``pairs``, the pairs it was given.
    """

    N: int
    indices: np.ndarray
    coeffs: np.ndarray
    amps: np.ndarray
    pairs: tuple | None = None
    coherence: np.ndarray | None = None
    knowledge: np.ndarray | None = None
    duality_sum: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.indices.shape[1]

    def __len__(self) -> int:
        return len(self.indices)

    def specs(self) -> list[DetectorSpec]:
        """The rows as scenarios, rebuilt from ``coeffs`` through DetectorSpec."""
        return [
            DetectorSpec(support=Support(N=self.N, indices=tuple(row)), coeffs=tuple(coeffs))
            for row, coeffs in zip(self.indices.tolist(), self.coeffs.tolist())
        ]


def _support_rows(N: int, indices) -> np.ndarray:
    """Support rows as an (S, n) index array, each row checked against the
    rules of a support: indices in 0..N-1, strictly increasing."""
    check_path_count(N)
    idx = np.asarray(indices)
    if idx.dtype.kind == "f" and all(map(is_int, np.asarray(indices, dtype=object).flat)):
        idx = np.asarray(indices, dtype=object)  # int64 and uint64 values promote to float64
    if idx.ndim == 2 and idx.shape[1] == 0:
        raise ValidationError("support must contain at least one index")
    # Python ints beyond int64 give an object array; the range rule rejects them.
    if idx.ndim != 2 or not (
        idx.dtype.kind in "iu" or idx.dtype == object and all(map(is_int, idx.flat))
    ):
        raise ValidationError(
            f"support rows must be a 2-D integer array, got {idx.dtype} of shape {idx.shape}"
        )
    top = min(N, np.iinfo(np.intp).max + 1)  # indices are held as intp
    bad = ((idx < 0) | (idx >= top)).any(axis=1)
    if bad.any():
        raise ValidationError(
            f"support indices must lie in 0..{top - 1}, got {tuple(idx[bad][0].tolist())}"
        )
    idx = idx.astype(np.intp, copy=False)
    bad = (idx[:, 1:] <= idx[:, :-1]).any(axis=1)
    if bad.any():
        raise ValidationError(
            f"support indices must be strictly increasing, got {tuple(idx[bad][0].tolist())}"
        )
    return idx


def _real(value, what: str) -> float:
    """One coefficient entry as a float. None, strings and complex numbers
    raise ValidationError; a numpy complex is not cut to its real part."""
    try:
        if isinstance(value, (complex, np.complexfloating)):
            raise TypeError("complex entry")
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be real numbers, got {value!r}") from exc


def _coefficients(probabilities) -> np.ndarray:
    """Coefficients ``sqrt(p)`` of squared coefficients that must be strictly
    positive and finite."""
    probs = np.asarray(probabilities, dtype=float)
    if not (np.isfinite(probs) & (probs > 0.0)).all():
        raise ValidationError(
            "squared coefficients must be strictly positive and finite; express "
            "zero entries by shrinking the support"
        )
    return np.sqrt(probs)


def _validated(coeffs: np.ndarray) -> np.ndarray:
    """The amplitudes of each row of coefficients: the coefficient rule, a
    ``math.fsum`` of the squares within NORM_REPAIR_ATOL of 1, and the
    rescale by ``1 / sqrt(sum)``, which changes no bit of a row whose squares
    sum to exactly 1.0."""
    with np.errstate(over="ignore"):
        squares = coeffs * coeffs
    if not (np.isfinite(coeffs) & (coeffs > 0.0) & (squares >= PROBABILITY_FLOOR)).all():
        raise ValidationError(
            "coefficients must be strictly positive and finite, with squares of at "
            f"least {PROBABILITY_FLOOR!r} (the smallest normal float); express zero "
            "entries by shrinking the support"
        )
    totals = np.fromiter(map(_fsum, squares.tolist()), dtype=float, count=len(coeffs))
    off = np.abs(totals - 1.0) > NORM_REPAIR_ATOL
    if off.any():
        raise ValidationError(
            f"squared coefficients must sum to 1 within {NORM_REPAIR_ATOL} "
            f"(got {float(totals[off][0])!r})"
        )
    return coeffs * (1.0 / np.sqrt(totals))[:, None]


def _fsum(values) -> float:
    """``math.fsum``, or inf where the exact sum of finite values overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def block_from_probabilities(N: int, indices, probabilities) -> SweepBlock:
    """Row ``i`` is ``spec_from_probabilities(N, indices[i], probabilities[i])``,
    with every check that function makes and the same amplitudes bit for bit."""
    coeffs = _coefficients(probabilities)
    indices = _support_rows(N, indices)
    if coeffs.shape != indices.shape:
        raise ValidationError(
            f"need one coefficient per support index: got {coeffs.shape} "
            f"probabilities for supports of shape {indices.shape}"
        )
    return SweepBlock(N=N, indices=indices, coeffs=coeffs, amps=_validated(coeffs))


def uniform_block(N: int, indices) -> SweepBlock:
    """Row ``i`` is ``uniform_spec(N, indices[i])``: coefficients ``1/sqrt(n)``,
    validated as DetectorSpec validates them, so n = 2 rows are rescaled."""
    indices = _support_rows(N, indices)
    coeffs = np.full((1, indices.shape[1]), 1.0 / math.sqrt(indices.shape[1]))
    return SweepBlock(
        N=N,
        indices=indices,
        coeffs=np.broadcast_to(coeffs, indices.shape),
        amps=np.broadcast_to(_validated(coeffs), indices.shape),
    )


def block_from_specs(specs) -> SweepBlock:
    """One block of scenarios that share N and n. Its ``coeffs`` and ``amps``
    are both the specs' validated coefficients."""
    specs = list(specs)
    if any(spec.N != specs[0].N or spec.n != specs[0].n for spec in specs):
        raise ValidationError("a block needs scenarios that share N and n")
    amps = np.array([spec.coeffs for spec in specs])
    indices = np.array([spec.support.indices for spec in specs], dtype=np.intp)
    return SweepBlock(N=specs[0].N, indices=indices, coeffs=amps, amps=amps)


def uniform_supports(N: int, n: int) -> Iterator[np.ndarray]:
    """All C(N, n) supports of dimension n in lexicographic order, drawn
    lazily as C-ordered ``(rows, n)`` index arrays of at most ``BLOCK_ROWS``
    rows. N and n are checked when called: N may be at most
    ``EVAL_BLOCK_ENTRIES``, as in a sweep, since the stream holds all N
    indices from its start."""
    check_path_count(N)
    if N > EVAL_BLOCK_ENTRIES:
        raise ValidationError(f"an enumeration takes at most {EVAL_BLOCK_ENTRIES} paths, got {N}")
    check_dimension(n, N)
    return _uniform_supports(N, n)


def _uniform_supports(N: int, n: int) -> Iterator[np.ndarray]:
    # One flat index stream per block, reshaped: with an (intp, n) subarray
    # dtype, np.fromiter would convert each combination tuple separately.
    combos = itertools.combinations(range(N), n)
    remaining = math.comb(N, n)
    while remaining:
        rows = min(BLOCK_ROWS, remaining)
        remaining -= rows
        flat = itertools.chain.from_iterable(itertools.islice(combos, rows))
        yield np.fromiter(flat, dtype=np.intp, count=rows * n).reshape(rows, n)


def _embed(n_paths: int, indices, values: np.ndarray) -> np.ndarray:
    """Zero rows of length N holding ``values`` at the support ``indices``,
    in the dtype of ``values``: one row (1-D values) or one per row of
    ``values`` (any leading axes), where ``indices`` broadcasts against
    ``values``, one support or one per row. N is at most ``EVAL_BLOCK_ENTRIES``."""
    _check_path_limit(n_paths)
    padded = np.zeros(values.shape[:-1] + (n_paths,), dtype=values.dtype)
    np.put_along_axis(padded, np.broadcast_to(indices, values.shape), values, axis=-1)
    return padded


def uniform_spec(N: int, indices) -> DetectorSpec:
    """Scenario with uniform coefficients ``1/sqrt(n)`` on the given support."""
    support = Support(N=N, indices=tuple(indices))
    amp = 1.0 / math.sqrt(support.n)
    return DetectorSpec(support=support, coeffs=(amp,) * support.n)


def spec_from_probabilities(N: int, indices, probabilities) -> DetectorSpec:
    """Scenario from squared coefficients; they must be positive and sum to 1."""
    coeffs = _coefficients([[_real(p, "squared coefficients") for p in probabilities]])
    support = Support(N=N, indices=tuple(indices))
    return DetectorSpec(support=support, coeffs=tuple(coeffs[0].tolist()))


def enumerate_uniform_specs(N: int, n: int) -> list[DetectorSpec]:
    """All C(N, n) uniform scenarios of subspace dimension n, in lexicographic
    support order."""
    return [spec for rows in uniform_supports(N, n) for spec in uniform_block(N, rows).specs()]


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
