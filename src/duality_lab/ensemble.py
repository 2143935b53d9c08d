"""Seeded random-scenario sampling, strategy sweeps, and scatter datasets.

Randomness contract (version 1, ``RNG_CONTRACT``): sample ``i`` of a sweep
draws from its own generator, ``PCG64(SeedSequence(seed, spawn_key=(i,)))``,
so a sample's draws do not depend on how the samples are split into chunks;
output ordering is by sample index. Coefficient probabilities are drawn flat
on the simplex (normalized unit exponentials) and supports uniformly over
the C(N, n) subsets. The fixed per-sample draw order is: path count (only
when drawn from a range, as in ``verify``), subspace dimension (only when
sweeping all dimensions), support, coefficients; ``_draw_scenario`` is its
one definition, and :func:`sample_spec` draws through its ``_draw``.

``_chunk_draws``, shared by the sweep and ``verify``, keeps the contract
without running a generator per sample. ``_pcg64_states`` computes the
``SeedSequence`` mixing and PCG64 seeding of all its samples, and
``_raw_words`` steps their PCG64 streams (O'Neill 2014, PCG-XSL-RR 128/64)
together: the 128-bit LCG on uint64 arrays of low and high words, then the
XSL-RR output. From the words of a sample's path-count, dimension and
support draws, ``_support_picks`` computes numpy's bounded draws (Lemire's
method on 32-bit halves, low half first) and Floyd's set, one membership
test per step, for every sample of an (N, n) at once; the choice's closing
shuffle only consumes words, as supports are sorted. From the next words,
``_exponentials`` computes the fast path of numpy's 256-level ziggurat
(Marsaglia and Tsang 2000), ``ri * we[idx]`` when ``ri < ke[idx]``, whose
tables each process probes and checks against numpy before its first use
(``_exponential_tables``). From a sample's first word off the fast path,
numpy draws its rest on the chunk's one generator, set to the sample's
stream and advanced to that word (``PCG64.advance``). A sample is drawn by
``_draw_scenario`` on that generator instead when numpy may have rejected
one of its bounded draws and drawn again, when its choice shuffles the tail
of ``range(N)`` (N > 10,000 and n > N // 50), or when its dimension is above
``_EMULATED_MAX_DIMENSION``, where ``choice`` costs less. Each chunk checks
its first state against :func:`sample_rng`, and its first sample's draws
against the generator's, and raises if numpy seeds or draws differently.

Sweeps work on array blocks (``states.SweepBlock``) and build no per-sample
objects: the draws of a chunk of samples are gathered into one block per
subspace dimension, validated as ``DetectorSpec`` validates one scenario,
and evaluated by :func:`duality.evaluate_block` once for all (strategy, xi)
pairs, which label the evaluated block's columns. The uniform overlay and
the two-path grid are blocks too.

Each ``scan`` source is one stream of ``(blocks, order)`` chunks in point
order: :func:`sweep_chunks` (samples, strategies innermost), whose sampled
chunks are computed on up to :func:`resolve_workers` processes, and
:func:`two_path_grid` (strategies, then grid points). ``scan`` writes each
chunk's CSV rows and folds it into the :class:`Envelope` as it arrives, so
its memory does not grow with the sample count. :class:`ScatterDataset`
keeps the same chunks for library callers: :func:`write_points_csv` writes
them through :func:`write_chunks`, as ``scan`` does, and
:func:`boundary_envelope` folds them.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .duality import EVAL_BLOCK_ENTRIES, DualityPoint, _block_points, evaluate_block, strategy_pairs
from .measurements import Strategy
from .saturation import SCAN_MAX_PATHS
from .states import (
    BLOCK_ROWS,
    DetectorSpec,
    SweepBlock,
    ValidationError,
    block_from_probabilities,
    check_dimension,
    check_path_count,
    is_int,
    spec_from_probabilities,
    support_label,
    uniform_block,
    uniform_supports,
)

__all__ = [
    "SweepConfig",
    "ScatterDataset",
    "sample_rng",
    "sample_spec",
    "run_sweep",
    "sweep_chunks",
    "two_path_grid",
    "Envelope",
    "boundary_envelope",
    "write_chunks",
    "write_points_csv",
    "write_manifest",
    "POINTS_CSV_HEADER",
]

# Version of the randomness contract above, recorded in every manifest.
RNG_CONTRACT = 1
# Most points the uniform enumeration may add to a sweep, which a dataset
# holds all at once (N = 18 with every dimension has 2^18 - 1 scenarios).
UNIFORM_OVERLAY_MAX_POINTS = 1 << 18


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; ``n = None`` draws the subspace dimension per sample.

    ``strategies`` pairs a strategy tag with a separation level; the
    minimum-error strategy ignores the level and records 0.0. With
    ``include_uniform_enumeration`` the dataset also gets every uniform
    scenario of dimension 1 up to ``n`` (or up to N when sweeping all
    dimensions), the overlay marking cusps and saturation contacts. N is at
    most ``duality.EVAL_BLOCK_ENTRIES``, so one row fits one evaluation slice.
    """

    N: int
    n: int | None
    samples: int
    strategies: tuple[tuple[Strategy, float], ...]
    seed: int
    include_uniform_enumeration: bool = False

    def __post_init__(self) -> None:
        check_path_count(self.N)
        if self.N > EVAL_BLOCK_ENTRIES:
            raise ValidationError(f"a sweep takes at most {EVAL_BLOCK_ENTRIES} paths, got {self.N}")
        if self.n is not None:
            check_dimension(self.n, self.N)
        if not is_int(self.samples) or self.samples < 0:
            raise ValidationError(f"sample count must be a nonnegative integer, got {self.samples!r}")
        if self.samples == 0 and not self.include_uniform_enumeration:
            raise ValidationError("nothing to sweep: zero samples and no uniform enumeration")
        if self.include_uniform_enumeration and self.N > SCAN_MAX_PATHS:
            raise ValidationError(
                f"the uniform enumeration is limited to N <= {SCAN_MAX_PATHS} paths "
                f"(it holds up to 2^N - 1 scenarios), got N = {self.N}"
            )
        object.__setattr__(self, "strategies", strategy_pairs(self.strategies))
        if self.include_uniform_enumeration:
            top = self.n if self.n is not None else self.N
            scenarios = sum(math.comb(self.N, k) for k in range(1, top + 1))
            if scenarios * len(self.strategies) > UNIFORM_OVERLAY_MAX_POINTS:
                raise ValidationError(
                    f"the uniform enumeration would add {scenarios} scenarios x "
                    f"{len(self.strategies)} (strategy, xi) pairs, more than the limit of "
                    f"{UNIFORM_OVERLAY_MAX_POINTS} points; lower n"
                )
        if not is_int(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "n": self.n if self.n is not None else "all",
            "samples": self.samples,
            "strategies": [[tag.value, xi] for tag, xi in self.strategies],
            "seed": self.seed,
            "include_uniform_enumeration": self.include_uniform_enumeration,
        }


@dataclass(frozen=True, eq=False)
class ScatterDataset:
    """Points from one sweep, with the configuration echo.

    The points live in the ``(blocks, order)`` chunks that
    :func:`sweep_chunks` or :func:`two_path_grid` yielded, in point order.
    Within a chunk, a block's cells are its (pair, row) entries over its own
    (strategy, xi) ``pairs``, pair-major, and cells are numbered block after
    block; the chunk's point ``i`` is cell ``order[i]``.
    """

    config: dict
    chunks: tuple[tuple[list[SweepBlock], np.ndarray], ...]

    @property
    def point_count(self) -> int:
        return sum(len(order) for _, order in self.chunks)

    @cached_property
    def points(self) -> tuple[DualityPoint, ...]:
        """The points as :class:`DualityPoint` objects, built on first use."""
        points = []
        for blocks, order in self.chunks:
            cells = []
            for block in blocks:
                specs = block.specs()
                for column in range(len(block.pairs)):
                    cells += _block_points(block, column, specs)
            points += [cells[i] for i in order.tolist()]
        return tuple(points)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """The private generator of sample ``index`` under the given sweep seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


# numpy's SeedSequence (pool of 4 words; numpy/random/bit_generator.pyx) and
# PCG64 seeding (numpy/random/src/pcg64) constants.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_MIX_HASH = (0x43B0D7E5, 0x931E8875)  # hashmix in mix_entropy: start, multiplier
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)  # the same step in generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_LOW, _MULT_HIGH = _PCG64_MULT & (1 << 64) - 1, _PCG64_MULT >> 64


def _lcg_step(low: np.ndarray, high: np.ndarray, inc: np.ndarray):
    """PCG64's LCG step ``state * mult + inc`` mod 2^128 on uint64 arrays of
    the state's ``low`` and ``high`` words; ``inc`` is a ``(2, rows)`` word
    array. The high word takes every product mod 2^64, as uint64 wraps, and
    the carry out of the low word's product, computed on 32-bit halves so
    that no partial sum overflows."""
    a0, a1 = low & _MASK32, low >> 32
    b0, b1 = _MULT_LOW & _MASK32, _MULT_LOW >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    middle = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    new_low = (middle << 32 | p00 & _MASK32) + inc[0]
    carried = p11 + (p01 >> 32) + (p10 >> 32) + (middle >> 32) + (new_low < inc[0])
    return new_low, carried + low * _MULT_HIGH + high * _MULT_LOW + inc[1]


def _ints(words: np.ndarray) -> list[int]:
    """The Python ints of a ``(2, rows)`` array of low and high words."""
    return [high << 64 | low for low, high in zip(words[0].tolist(), words[1].tolist())]


def _hash_steps(start: int, multiplier: int):
    """The (xor, multiply) constants of successive hash steps, which are the
    same for every sample."""
    while True:
        following = start * multiplier & _MASK32
        yield start, following
        start = following


def _hashmix(words: np.ndarray, steps) -> np.ndarray:
    xor, multiply = next(steps)
    words = (words ^ xor) * multiply
    return words ^ words >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    words = _MIX_L * x - _MIX_R * y
    return words ^ words >> 16


def _pcg64_states(seed: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(state, inc)`` that ``sample_rng(seed, i)`` starts from, for
    each sample ``i`` in ``start``..``stop - 1``, as two ``(2, stop - start)``
    uint64 arrays of low and high words.

    Computes numpy's ``SeedSequence(seed, spawn_key=(i,))`` entropy mixing
    and ``generate_state(4, np.uint64)`` as uint32 arithmetic over all the
    samples at once, then PCG64's seeding step. The entropy is the
    seed's 32-bit words, low word first, padded with zeros to the pool size,
    then the index's words (two from 2^32 on).
    """
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    seed_words += [0] * (_POOL - len(seed_words))
    wide = min(max(start, 1 << 32), stop)
    parts = []
    for lo, hi in ((start, wide), (wide, stop)):
        if lo == hi:
            continue
        index = np.arange(lo, hi, dtype=np.uint64)
        entropy = [np.array([word], dtype=np.uint32) for word in seed_words]
        entropy.append((index & _MASK32).astype(np.uint32))
        if lo >= 1 << 32:
            entropy.append((index >> 32).astype(np.uint32))
        steps = _hash_steps(*_MIX_HASH)
        pool = [_hashmix(word, steps) for word in entropy[:_POOL]]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps))
        for word in entropy[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = _mix(pool[dst], _hashmix(word, steps))
        steps = _hash_steps(*_STATE_HASH)
        parts.append([_hashmix(pool[i % _POOL], steps).astype(np.uint64) for i in range(8)])
    # Little-endian word pairs make the four uint64 seeds: initstate, then
    # initseq, each high word first. PCG64 seeds inc = initseq << 1 | 1 and
    # state = (initstate + inc) * mult + inc.
    words = np.concatenate(parts, axis=1)
    state_high, state_low, seq_high, seq_low = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    inc = np.stack([seq_low << 1 | 1, seq_high << 1 | seq_low >> 63])
    low = state_low + inc[0]
    return np.stack(_lcg_step(low, state_high + inc[1] + (low < inc[0]), inc)), inc


def _raw_words(state: np.ndarray, inc: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw PCG64 words (``random_raw``) of each row's
    stream in the ``(state, inc)`` word arrays, as a ``(rows, count)`` array.

    Each step is O'Neill's PCG64 (PCG-XSL-RR 128/64, HMC-CS-2014-0905):
    the 128-bit LCG ``state = state * mult + inc``, then the XSL-RR output
    of the new state, its 64-bit halves xored and rotated right by its top
    six bits.
    """
    words = np.empty((state.shape[1], count), dtype=np.uint64)
    low, high = state
    for k in range(count):
        low, high = _lcg_step(low, high, inc)
        mixed, rotation = high ^ low, high >> 58
        words[:, k] = mixed >> rotation | mixed << (64 - rotation & 63)
    return words


def _set_stream(rng: np.random.Generator, state: int, inc: int) -> np.random.Generator:
    """``rng`` with its PCG64 set to ``(state, inc)``, with no buffered
    half-word: ``choice`` can leave one behind."""
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


# numpy's random_standard_exponential is Marsaglia and Tsang's 256-level
# ziggurat (J. Stat. Softw. 5(8), 2000) on 64-bit words: a word w gives
# ri = w >> 11 and the level idx = w >> 3 & 0xFF, and numpy returns
# ri * we[idx] when ri < ke[idx]. Its tables are not exposed, so each process
# probes them (see _exponential_tables), taking bounds this far below its
# estimates of ke.
_KE_MARGIN = 1 << 16


def _set_words(rng: np.random.Generator, first: int, second: int) -> np.random.Generator:
    """``rng`` set so that its states after one and two steps are ``first``
    and ``second``, which fixes ``inc``, and then stepped back one word
    (``advance`` by 2^128 - 1); a state below 2^64 outputs its low half, so
    those are also its next two raw words."""
    _set_stream(rng, first, second - first * _PCG64_MULT & _MASK128).bit_generator.advance(_MASK128)
    return rng


def _probe_exponential_tables(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat ``we``, and lower bounds of its ``ke``, from ``rng``.

    ``we[idx]`` is the draw of the word with ri = 1 at level idx. A zero word
    follows, so that level 1, which has no fast path, accepts in its slow
    path. Marsaglia and Tsang's tables have ke[i] = x[i - 1] / x[i] * 2^53
    for i >= 2, where we[i] = x[i] / 2^53, ke[0] = x[255] / x[0] * 2^53 and
    ke[1] = 0; the bounds are those ratios less ``_KE_MARGIN``.
    """
    we = np.array([_set_words(rng, 1 << 11 | i << 3, 0).standard_exponential() for i in range(256)])
    ratios = np.concatenate([we[255:] / we[:1], [0.0], we[1:-1] / we[2:]])
    return we, np.maximum(ratios * 2.0**53 - _KE_MARGIN, 0).astype(np.uint64)


def _check_exponential_tables(rng: np.random.Generator, we: np.ndarray, ke: np.ndarray) -> None:
    """Raise unless, at every level idx with ``ke[idx] > 0``, numpy draws
    ``we[idx]`` from ri = 1 and then ``ri * we[idx]`` from ri = ke[idx] - 1,
    one word each. Its fast path is then exact on ``we[idx]`` and takes every
    ri below ``ke[idx]``."""
    for idx in np.flatnonzero(ke).tolist():
        ri = int(ke[idx]) - 1
        _set_words(rng, 1 << 11 | idx << 3, ri << 11 | idx << 3)
        draws = rng.standard_exponential(), rng.standard_exponential()
        steps = rng.bit_generator.state["state"]["state"]
        if draws != (we[idx], ri * we[idx]) or steps != ri << 11 | idx << 3:
            raise RuntimeError(
                f"numpy {np.__version__} draws standard exponentials differently from the "
                f"ziggurat emulation of RNG contract {RNG_CONTRACT} (level {idx})"
            )


@cache
def _exponential_tables() -> tuple[np.ndarray, np.ndarray]:
    """The probed and checked ``(we, ke)`` ziggurat tables, read-only."""
    rng = sample_rng(0, 0)
    we, ke = _probe_exponential_tables(rng)
    _check_exponential_tables(rng, we, ke)
    we.flags.writeable = ke.flags.writeable = False
    return we, ke


def _exponentials(rng, state: np.ndarray, inc: np.ndarray, words: np.ndarray, offset: int):
    """numpy's ``standard_exponential(n)`` of each row of the ``(rows, n)``
    raw ``words``, which start ``offset`` words into the streams of the
    ``(state, inc)`` word arrays.

    A word numpy takes on its ziggurat's fast path gives ``ri * we[idx]``.
    numpy draws the rest of a row from its first other word on: ``rng`` is
    set to the row's stream and advanced (``PCG64.advance``) to that word.
    """
    we, ke = _exponential_tables()
    ri, level = words >> 11, words >> 3 & 0xFF
    draws = ri.astype(np.float64) * we[level]
    slow = ri >= ke[level]
    rows = np.flatnonzero(slow.any(axis=1))
    firsts = slow[rows].argmax(axis=1).tolist()
    for row, first, s, c in zip(rows.tolist(), firsts, _ints(state[:, rows]), _ints(inc[:, rows])):
        _set_stream(rng, s, c).bit_generator.advance(offset + first)
        rng.standard_exponential(out=draws[row, first:])
    return draws


def _draw(rng: np.random.Generator, N: int, n: int | None):
    """One sample's draws in contract order: the subspace dimension (only when
    ``n`` is None), the support, the coefficients. Returns the unsorted
    support and the unit exponential weights; :func:`_scenarios` turns them
    into sorted supports and probabilities."""
    if n is None:
        n = int(rng.integers(1, N + 1))
    return rng.choice(N, size=n, replace=False), rng.standard_exponential(n)


def _draw_scenario(rng: np.random.Generator, paths: tuple[int, int], n: int | None):
    """One sample's ``(N, support, weights)`` in contract order: the path
    count N from ``integers(lo, hi + 1)`` over ``paths = (lo, hi)``, which
    draws nothing when lo == hi, then :func:`_draw`."""
    N = int(rng.integers(paths[0], paths[1] + 1))
    return (N, *_draw(rng, N, n))


def _draw_bounds(N: int, n: int, leading: list[int]) -> np.ndarray:
    """The exclusive bounds of one sample's 32-bit draws before its
    coefficients, in stream order, when numpy rejects none: the ``leading``
    path-count and dimension bounds of those drawn, Floyd's steps
    ``j = N - n..N - 1`` except ``j = 0``, which draws nothing, then the
    choice's shuffle steps ``i = n - 1..1``."""
    return np.array([*leading, *range(max(N - n, 1) + 1, N + 1), *range(n, 1, -1)], dtype=np.uint64)


def _floyd_picks(values: np.ndarray, N: int) -> np.ndarray:
    """Floyd's set (Bentley and Floyd, CACM 30(9), 1987), one sample per
    row, from the bounded values ``values[:, t]`` of steps ``j = N - n + t``:
    a value already among the picks is replaced by ``j``. Returns the picks
    in step order. The picks are held step-major, so that each membership
    test compares whole contiguous rows."""
    n, picks = values.shape[1], values.T.copy()
    for t in range(1, n):
        picks[t, (picks[:t] == picks[t]).any(axis=0)] = N - n + t
    return picks.T


def _support_picks(N: int, n: int, leading: int, bounds: np.ndarray, words: np.ndarray):
    """The picks of ``choice(N, n, replace=False)``, in Floyd's step order,
    from raw PCG64 words, one sample per row, each row holding the draws of
    ``bounds = _draw_bounds(N, n, ...)`` with its ``leading`` bounds first;
    and whether numpy may have rejected a draw of the row, which would make
    it draw more. Rows are taken in slices of at most ``EVAL_BLOCK_ENTRIES``
    draws, as the kernel takes them."""
    picks = np.empty((len(words), n), dtype=np.intp)
    rejected = np.empty(len(words), dtype=bool)
    step = max(1, EVAL_BLOCK_ENTRIES // len(bounds))
    for lo in range(0, len(words), step):
        # A 64-bit word serves two 32-bit draws u, its low half first. Lemire's
        # bounded draw is u * bound >> 32; numpy may reject u and draw again
        # only when the low word of the product is below the bound.
        halves = words[lo : lo + step].astype("<u8").view("<u4")[:, : len(bounds)]
        scaled = halves.astype(np.uint64) * bounds
        rejected[lo : lo + step] = ((scaled & _MASK32) < bounds).any(axis=1)
        values = (scaled >> 32).astype(np.int64)
        if N == n:  # the step j = 0 draws nothing and picks 0
            values = np.insert(values, leading, 0, axis=1)
        picks[lo : lo + step] = _floyd_picks(values[:, leading : leading + n], N)
    return picks, rejected


# The largest subspace dimension whose samples a chunk emulates. Above it,
# most rows leave the ziggurat's fast path, Floyd's loop grows as n^2, and
# the array passes cost more per sample than _draw: at N = 1000, emulation
# won at n = 74, tied at 76 and 78 and lost at 80.
_EMULATED_MAX_DIMENSION = 74


def _chunk_draws(seed: int, paths: tuple[int, int], n: int | None, start: int, stop: int):
    """The draws of samples ``start``..``stop - 1``, one ``(N, positions,
    supports, weights)`` per (N, n) in increasing order, as
    :func:`_draw_scenario` makes them from :func:`sample_rng` over the path
    counts ``paths = (lo, hi)``, ``(N, N)`` in a sweep: unsorted supports
    and unit exponential weights.

    The samples' raw PCG64 words come from :func:`_raw_words`: the words of
    their path-count, dimension and support draws, then one word per
    exponential, which start where the choice would have left off because
    64-bit draws skip the buffered half-word. The path count (bound
    ``hi - lo + 1``, when lo < hi) and then the dimension (bound N, when
    ``n`` is None) are drawn from the first word's halves, low half first,
    and fix the count. :func:`_support_picks` and :func:`_exponentials` turn
    the words into the draws of every sample of an (N, n) at once. A sample
    is drawn by :func:`_draw_scenario` instead, on the chunk's one
    generator, when numpy may have rejected one of its bounded draws, when
    its choice shuffles the tail, or when its dimension is above
    ``_EMULATED_MAX_DIMENSION``. Sample ``start`` is checked against
    :func:`_draw_scenario`, so a numpy that draws differently fails here.
    """
    (lo, hi), rows = paths, stop - start
    state, inc = _pcg64_states(seed, start, stop)
    # The chunk's one generator is sample start's: a numpy whose seeding differs
    # fails here, not later, and its draws of sample start check the emulation.
    rng = sample_rng(seed, start)
    derived = {"state": _ints(state[:, :1])[0], "inc": _ints(inc[:, :1])[0]}
    if rng.bit_generator.state["state"] != derived:
        raise RuntimeError(
            f"numpy {np.__version__} seeds PCG64 from SeedSequence differently from "
            f"the derivation of RNG contract {RNG_CONTRACT} (seed {seed}, sample {start})"
        )
    want = _draw_scenario(rng, paths, n)
    Ns, dims, by_draw = np.full(rows, lo), np.full(rows, n or 0), np.zeros(rows, dtype=bool)
    if lo < hi or n is None:  # Lemire's draws on the first word's halves, as in _support_picks
        halves = iter(_raw_words(state, inc, 1).astype("<u8").view("<u4").T)
    if lo < hi:
        scaled = next(halves).astype(np.uint64) * (hi - lo + 1)
        Ns, by_draw = lo + (scaled >> 32).astype(np.intp), (scaled & _MASK32) < hi - lo + 1
    if n is None:
        scaled = next(halves).astype(np.uint64) * Ns.astype(np.uint64)
        dims, by_draw = 1 + (scaled >> 32).astype(np.intp), by_draw | ((scaled & _MASK32) < Ns)
    # numpy's choice shuffles the tail of range(N) instead of building
    # Floyd's set when N > 10,000 and n > N // 50 (so n > 200).
    by_draw |= (dims > _EMULATED_MAX_DIMENSION) | ((Ns > 10000) & (dims > Ns // 50))
    emulated = np.flatnonzero(~by_draw)
    keys, group = np.unique(Ns[emulated] * (hi + 1) + dims[emulated], return_inverse=True)
    scenarios = [divmod(key, hi + 1) for key in keys.tolist()]  # a key is (N, n) as one number
    leading = int(lo < hi) + int(n is None)
    bounds = [_draw_bounds(N, m, [hi - lo + 1] * (lo < hi) + [N] * (n is None)) for N, m in scenarios]
    heads = [(len(b) + 1) // 2 for b in bounds]  # words before the exponentials
    count = max((head + m for head, (_, m) in zip(heads, scenarios)), default=0)
    words = _raw_words(state[:, emulated], inc[:, emulated], count)
    parts = {}  # (N, n) -> (positions, supports, weights) parts
    for g, ((N, m), head) in enumerate(zip(scenarios, heads)):
        members = group == g
        positions, exponentials = emulated[members], words[members, head : head + m]
        picks, rejected = _support_picks(N, m, leading, bounds[g], words[members, :head])
        weights = _exponentials(rng, state[:, positions], inc[:, positions], exponentials, head)
        parts[N, m] = [(positions[~rejected], picks[~rejected], weights[~rejected])]
        by_draw[positions[rejected]] = True
    exact = np.flatnonzero(by_draw)
    for i, s, c in zip(exact.tolist(), _ints(state[:, exact]), _ints(inc[:, exact])):
        N, support, weights = _draw_scenario(_set_stream(rng, s, c), paths, n)
        parts.setdefault((N, len(support)), []).append(([i], [support], [weights]))
    groups = []
    for N, m in sorted(parts):
        positions, supports, weights = (np.concatenate(part) for part in zip(*parts[N, m]))
        order = np.argsort(positions)
        groups.append((N, positions[order], supports[order], weights[order]))
    got = next((N, sorted(s[0].tolist()), w[0].tolist()) for N, p, s, w in groups if p[0] == 0)
    if got != (want[0], sorted(want[1].tolist()), want[2].tolist()):
        raise RuntimeError(
            f"numpy {np.__version__} draws differently from the emulation of RNG contract "
            f"{RNG_CONTRACT} (seed {seed}, sample {start})"
        )
    return groups


def _scenarios(supports: np.ndarray, weights: np.ndarray):
    """Sorted supports and flat-simplex probabilities of draws, one per row
    (or of one draw, as 1-D arrays)."""
    return np.sort(supports, axis=-1), weights / weights.sum(axis=-1, keepdims=True)


def _chunk_blocks(seed: int, paths: tuple[int, int], n: int | None, start: int, stop: int):
    """The :func:`_chunk_draws` groups as ``(positions, block,
    probabilities)``: one ``block_from_probabilities`` block of each
    group's scenarios, validated row by row, and its probabilities."""
    for N, positions, supports, weights in _chunk_draws(seed, paths, n, start, stop):
        indices, probs = _scenarios(supports, weights)
        yield positions, block_from_probabilities(N, indices, probs), probs


def sample_spec(N: int, n: int, rng: np.random.Generator) -> DetectorSpec:
    """Draw one scenario: uniform random support, flat-simplex probabilities.
    N follows the path-count rule and must fit numpy's int64 draws; n is at
    most ``EVAL_BLOCK_ENTRIES``, as in a sweep."""
    check_path_count(N)
    check_dimension(n, N)
    if N > 2**63 - 1 or n > EVAL_BLOCK_ENTRIES:
        raise ValidationError(
            f"a drawn scenario takes at most 2**63 - 1 paths and {EVAL_BLOCK_ENTRIES} "
            f"coefficients, got N = {N}, n = {n}"
        )
    indices, probs = _scenarios(*_draw(rng, N, n))
    return spec_from_probabilities(N, indices.tolist(), probs.tolist())


def _interleave(groups, pairs: int) -> np.ndarray:
    """Point order of scenarios split into consecutive blocks, where
    ``groups`` holds each block's scenario positions. Points run
    scenario-major with the pairs innermost. A block's cells run pair-major,
    so the cells hold points ``positions * pairs + pair`` in turn, and the
    order is the inverse of that permutation."""
    column = np.arange(pairs)[:, None]
    points = [(positions * pairs + column).ravel() for positions in groups]
    return np.argsort(np.concatenate(points))


def _sweep_chunk(cfg: SweepConfig, start: int, stop: int):
    """Samples ``start``..``stop - 1``, one block per subspace dimension, and
    their order."""
    blocks, groups = [], []
    for positions, block, _ in _chunk_blocks(cfg.seed, (cfg.N, cfg.N), cfg.n, start, stop):
        blocks.append(evaluate_block(block, cfg.strategies))
        groups.append(positions)
    return blocks, _interleave(groups, len(cfg.strategies))


def _spans(samples: int, workers: int) -> list[tuple[int, int]]:
    """The fewest equal ``(start, stop)`` sample spans that are each at most
    ``BLOCK_ROWS`` long and whose count is a multiple of ``workers``."""
    count = workers * -(-samples // (workers * BLOCK_ROWS))
    return [(samples * k // count, samples * (k + 1) // count) for k in range(count)]


class _WorkerTraceback(Exception):
    """An exception raised in a sweep worker, ``args == (exc, text)``, with
    ``text`` its formatted traceback there. The caller re-raises ``exc``
    with this as its cause, so the worker's frames are printed with it."""

    def __str__(self) -> str:
        return "\n" + self.args[1]


def _pickled_failure(exc: Exception) -> bytes:
    """``exc`` and its traceback pickled for the caller. One that will not
    pickle, or not rebuild from its pickle, goes as a ``RuntimeError``
    carrying its ``repr``."""
    import pickle
    import traceback

    text = "".join(traceback.format_exception(exc))
    try:
        data = pickle.dumps(_WorkerTraceback(exc, text), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(_WorkerTraceback(RuntimeError(repr(exc)), text), pickle.HIGHEST_PROTOCOL)
    return data


def _serve(cfg: SweepConfig, spans, fd: int, readers):
    """A forked worker: evaluate ``spans`` in turn and pickle each chunk, or
    the exception that stopped it (see :func:`_pickled_failure`), into the
    pipe ``fd``. It ignores SIGINT, which the caller answers, closes the
    inherited pipe ends ``readers`` so that a write fails once the caller is
    gone, and leaves through ``os._exit``: it never flushes a buffer or runs
    an exit handler inherited from the caller."""
    import os
    import pickle
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for reader in readers:
            os.close(reader)
        with open(fd, "wb") as pipe:
            for lo, hi in spans:
                # Pickled whole before writing, so the pipe never holds part
                # of a result that failed to pickle.
                try:
                    data = pickle.dumps(_sweep_chunk(cfg, lo, hi), pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    pipe.write(_pickled_failure(exc))
                    break
                pipe.write(data)
                pipe.flush()
    finally:
        os._exit(0)


def _fork_workers(cfg: SweepConfig, spans, workers: int, pids: list, pipes: list) -> None:
    """Fork children 1..``workers - 1``, child ``w`` to run :func:`_serve` on
    ``spans[w::workers]``, appending each one's pid to ``pids`` and the read
    end of its pipe to ``pipes`` as soon as it exists. SIGINT stays blocked
    meanwhile, so no child is left unrecorded and none is interrupted before
    it ignores SIGINT."""
    import os
    import signal

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                readers = [read, *(pipe.fileno() for pipe in pipes)]
                _serve(cfg, spans[worker::workers], write, readers)
            pids.append(pid)
            os.close(write)
            pipes.append(open(read, "rb"))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _sampled_chunks(cfg: SweepConfig):
    """The sampled ``(blocks, order)`` chunks of :func:`sweep_chunks`, computed
    by W processes, the usable CPUs (:func:`resolve_workers`) capped at the
    serial chunk count ``ceil(samples / BLOCK_ROWS)``: span ``k`` of
    :func:`_spans` runs in process ``k % W``, the caller being process 0,
    and the caller takes every chunk in its turn. However the run ends, the
    ``finally`` kills and reaps every child."""
    import os
    import pickle
    import signal

    workers = max(1, min(resolve_workers(), -(-cfg.samples // BLOCK_ROWS)))
    spans = _spans(cfg.samples, workers)
    pids, pipes = [], []
    try:
        if workers > 1:
            _fork_workers(cfg, spans, workers, pids, pipes)
        for k, (lo, hi) in enumerate(spans):
            if k % workers == 0:
                yield _sweep_chunk(cfg, lo, hi)
                continue
            try:
                result = pickle.load(pipes[k % workers - 1])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(
                    f"the sweep worker of samples {lo}..{hi - 1} ended without their chunk"
                ) from None
            if isinstance(result, _WorkerTraceback):
                raise result.args[0] from result
            yield result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def sweep_chunks(cfg: SweepConfig):
    """The sweep's evaluated ``(blocks, order)`` chunks in point order: the
    samples, one chunk per span of :func:`_spans`, then each block of
    uniform scenarios of dimension 1 up to ``n`` (or N), in lexicographic
    support order. ``order`` numbers cells as :class:`ScatterDataset` does.

    The sampled chunks are computed on W = min(:func:`resolve_workers`,
    ``ceil(samples / BLOCK_ROWS)``) processes (see :func:`_sampled_chunks`),
    so a sweep of at most ``BLOCK_ROWS`` samples forks nothing. A forked
    child runs ahead by at most a pipe's worth of pickled chunk and the
    chunk it computes; the caller computes its own chunks when taken and
    yields every chunk in its turn. Each sample draws from its own stream, so the chunks
    hold the same points for every W. With W = 1 nothing is forked, and the
    uniform blocks are always evaluated in the caller when taken."""
    pairs = cfg.strategies
    yield from _sampled_chunks(cfg)
    if not cfg.include_uniform_enumeration:
        return
    for n in range(1, (cfg.n if cfg.n is not None else cfg.N) + 1):
        for indices in uniform_supports(cfg.N, n):
            block = evaluate_block(uniform_block(cfg.N, indices), pairs)
            yield [block], _interleave([np.arange(len(indices))], len(pairs))


def run_sweep(cfg: SweepConfig) -> ScatterDataset:
    """All (sample, strategy) pairs, then any uniform enumeration, collected
    from :func:`sweep_chunks`."""
    return ScatterDataset(cfg.to_json_dict(), tuple(sweep_chunks(cfg)))


def two_path_grid(strategies, steps: int = 200):
    """Deterministic two-path ``(config, chunks)`` over a grid of minimum probabilities.

    The grid runs the smaller squared coefficient over [0, 1/2] in ``steps``
    points; the zero endpoint degenerates to a one-dimensional support and
    the 1/2 endpoint to orthogonal states, so every curve connects the two
    trivial saturation points. It is evaluated once, in blocks of at most
    ``BLOCK_ROWS`` rows, and each chunk is one pair's column of one block,
    strategy by strategy. The grid and its evaluated arrays (about 88 B per
    step) are all held, so ``steps`` is at most ``EVAL_BLOCK_ENTRIES``.
    """
    if not is_int(steps) or steps < 2:
        raise ValidationError(f"grid steps must be an integer >= 2, got {steps!r}")
    if steps > EVAL_BLOCK_ENTRIES:
        raise ValidationError(f"grid steps must be at most {EVAL_BLOCK_ENTRIES}, got {steps}")
    pairs = strategy_pairs(strategies)
    p_min = np.linspace(0.0, 0.5, steps)[1:]  # index 0, the one zero, has n = 1
    blocks = [evaluate_block(uniform_block(2, np.zeros((1, 1), dtype=np.intp)), pairs)]
    for lo in range(0, len(p_min), BLOCK_ROWS):
        part = p_min[lo : lo + BLOCK_ROWS]
        supports = np.broadcast_to(np.arange(2), (len(part), 2))
        block = block_from_probabilities(2, supports, np.stack([1.0 - part, part], axis=1))
        blocks.append(evaluate_block(block, pairs))
    config = {
        "mode": "two-path-grid",
        "N": 2,
        "steps": steps,
        "strategies": [[tag.value, xi] for tag, xi in pairs],
    }
    columns = (
        replace(b, pairs=pairs[c], knowledge=b.knowledge[:, c], duality_sum=b.duality_sum[:, c])
        for c in [slice(i, i + 1) for i in range(len(pairs))]
        for b in blocks
    )
    return config, tuple(([column], np.arange(len(column))) for column in columns)


class Envelope:
    """Coherence minima and maxima per knowledge bin, [0, 1] split into
    ``bins`` equal bins, folded in as points arrive. Folding in parts gives
    the floats, signed zeros included, of one fold over all the points.
    ``bins`` is at most ``duality.EVAL_BLOCK_ENTRIES``."""

    def __init__(self, bins: int) -> None:
        if not is_int(bins) or bins < 2:
            raise ValidationError(f"bin count must be an integer >= 2, got {bins!r}")
        if bins > EVAL_BLOCK_ENTRIES:
            raise ValidationError(f"bin count must be at most {EVAL_BLOCK_ENTRIES}, got {bins}")
        self.bins = bins
        self.lows = np.full(bins, np.inf)
        self.highs = np.full(bins, -np.inf)

    def add(self, knowledge: np.ndarray, coherence: np.ndarray) -> None:
        """Fold in points given as knowledge and coherence columns."""
        slots = np.minimum((knowledge * self.bins).astype(np.intp), self.bins - 1)
        np.minimum.at(self.lows, slots, coherence)
        np.maximum.at(self.highs, slots, coherence)

    def add_blocks(self, blocks) -> None:
        """Fold in every cell of evaluated blocks, block after block."""
        for block in blocks:
            self.add(block.knowledge.ravel(), np.repeat(block.coherence, len(block.pairs)))

    def bounds(self) -> tuple[tuple[float, float, float], ...]:
        """``(bin_center, min_coherence, max_coherence)`` of each nonempty bin."""
        filled = np.flatnonzero(self.lows <= self.highs).tolist()
        if not filled:
            raise ValidationError("boundary envelope needs at least one point")
        lows, highs = self.lows[filled].tolist(), self.highs[filled].tolist()
        return tuple(((b + 0.5) / self.bins, lo, hi) for b, lo, hi in zip(filled, lows, highs))


def boundary_envelope(dataset: ScatterDataset, bins: int) -> tuple[tuple[float, float, float], ...]:
    """Binwise coherence extremes of a dataset over the knowledge axis (see
    :class:`Envelope`), a reproducible stand-in for a boundary polygon."""
    envelope = Envelope(bins)
    for blocks, _ in dataset.chunks:
        envelope.add_blocks(blocks)
    return envelope.bounds()


POINTS_CSV_HEADER = ["N", "n", "strategy", "xi", "K", "C", "sum", "support"]


def _csv_lines(blocks, order: np.ndarray) -> list[str]:
    """The CSV row of every point of one ``(blocks, order)`` chunk, in point
    order: the only place the row format is defined."""
    cells = []
    for block in blocks:
        # Label each distinct support once; a block often repeats a few.
        names, rows = {}, map(tuple, block.indices.tolist())
        labels = [names.get(row) or names.setdefault(row, support_label(row)) for row in rows]
        coherence = block.coherence.tolist()
        for column, (tag, xi) in enumerate(block.pairs):
            head = f"{block.N},{block.n},{tag.value},{xi!r},"
            knowledge, total = block.knowledge[:, column], block.duality_sum[:, column]
            cells += [
                f"{head}{k!r},{c!r},{t!r},{label}\n"
                for k, c, t, label in zip(knowledge.tolist(), coherence, total.tolist(), labels)
            ]
    return [cells[i] for i in order.tolist()]


def write_chunks(fileobj, chunks, envelope: Envelope | None = None) -> int:
    """Write the CSV header, then each ``(blocks, order)`` chunk's rows as it
    arrives, folding it into ``envelope`` if given; returns the point count.
    Only one chunk is held at a time."""
    fileobj.write(",".join(POINTS_CSV_HEADER) + "\n")
    count = 0
    for blocks, order in chunks:
        fileobj.writelines(_csv_lines(blocks, order))
        if envelope is not None:
            envelope.add_blocks(blocks)
        count += len(order)
    return count


def write_points_csv(dataset: ScatterDataset, fileobj) -> None:
    """A dataset's CSV (header included, LF endings, full-precision floats via
    repr), written chunk by chunk as ``scan`` writes it."""
    write_chunks(fileobj, dataset.chunks)


def write_manifest(fileobj, *, config: dict, wall_time: float, point_count: int, envelope) -> None:
    """JSON run manifest: configuration echo, wall time, point count, envelope,
    and what ran: the RNG contract version and the package, Python, numpy and
    platform versions."""
    from . import __version__

    # platform.platform() less the processor name, which Linux reads by running uname -p
    host = [platform.system(), platform.release(), platform.machine()]
    libc = "".join(platform.libc_ver())
    payload = {
        "config": config,
        "wall_time": wall_time,
        "point_count": point_count,
        "envelope": [list(entry) for entry in envelope] if envelope is not None else None,
        "rng_contract": RNG_CONTRACT,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "platform": "-".join(host + ["with", libc] if libc else host),
    }
    json.dump(payload, fileobj, indent=2)
    fileobj.write("\n")


def resolve_workers() -> int:
    """The process count a sampled sweep may use: the CPUs this process may
    run on (``os.sched_getaffinity``), or 1 where the platform cannot tell."""
    import os

    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))
