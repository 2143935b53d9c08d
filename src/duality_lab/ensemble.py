"""Seeded random-scenario sampling, strategy sweeps, and scatter datasets.

Randomness contract (version 1, ``RNG_CONTRACT``): sample ``i`` of a sweep
draws from its own generator, ``PCG64(SeedSequence(seed, spawn_key=(i,)))``,
so a sample's draws do not depend on how the samples are split into chunks;
output ordering is by sample index. Coefficient probabilities are drawn flat
on the simplex (normalized unit exponentials) and supports uniformly over
the C(N, n) subsets. The fixed per-sample draw order is: subspace dimension
(only when sweeping all dimensions), support, coefficients; ``_draw`` is its
one definition, shared by :func:`sample_spec`, the sweep and ``verify``.

The sweep keeps the contract without constructing a generator per sample:
``_pcg64_states`` computes the ``SeedSequence`` mixing and PCG64 seeding of a
whole chunk's samples in one array pass, and the chunk's single generator is
set to each sample's state in turn. Nor does it call ``choice`` per sample:
it takes the raw PCG64 words that the dimension and support draws consume,
then the exponentials, and ``_chunk_draws`` computes numpy's bounded draws
(Lemire's method on 32-bit halves, low half first) and Floyd's set for
every sample of a dimension at once. The choice's closing shuffle only
consumes words, as supports are sorted. A sample is drawn by ``_draw``
instead when numpy may have rejected one of its bounded draws and drawn
again, or when its choice shuffles the tail of ``range(N)`` (N > 10,000 and
n > N // 50). Each chunk checks its first state against :func:`sample_rng`,
and its first sample's draws against ``_draw``, and raises if numpy seeds
or draws differently.

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
from functools import cached_property

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
    "two_path_grid_dataset",
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


def _pcg64_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The ``(state, inc)`` that ``sample_rng(seed, i)`` starts from, for
    each sample ``i`` in ``start``..``stop - 1``.

    Computes numpy's ``SeedSequence(seed, spawn_key=(i,))`` entropy mixing
    and ``generate_state(4, np.uint64)`` as uint32 arithmetic over all the
    samples at once, then PCG64's seeding step. The entropy is the seed's
    32-bit words, low word first, padded with zeros to the pool size, then
    the index's words (two from 2^32 on).
    """
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    seed_words += [0] * (_POOL - len(seed_words))
    wide = min(max(start, 1 << 32), stop)
    states = []
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
        words = [_hashmix(pool[i % _POOL], steps).astype(np.uint64) for i in range(8)]
        # Little-endian word pairs make the four uint64 seeds; the first two
        # are initstate and the last two initseq, high half first.
        state_hi, state_lo, seq_hi, seq_lo = (
            (words[i] | words[i + 1] << 32).tolist() for i in range(0, 8, 2)
        )
        for s_hi, s_lo, q_hi, q_lo in zip(state_hi, state_lo, seq_hi, seq_lo):
            inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
            states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _sample_generators(seed: int, start: int, stop: int):
    """One generator, set in turn to the stream of each sample ``start``..
    ``stop - 1``; the streams are :func:`sample_rng`'s.

    The first sample's derived state is checked against :func:`sample_rng`,
    so a numpy whose seeding differs fails here instead of drawing other
    numbers.
    """
    states = _pcg64_states(seed, start, stop)
    rng = sample_rng(seed, start)
    bit_generator = rng.bit_generator
    if bit_generator.state["state"] != dict(zip(("state", "inc"), states[0])):
        raise RuntimeError(
            f"numpy {np.__version__} seeds PCG64 from SeedSequence differently from "
            f"the derivation of RNG contract {RNG_CONTRACT} (seed {seed}, sample {start})"
        )
    for state, inc in states:
        # Reset the buffered half-word too: `choice` can leave one behind.
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _draw(rng: np.random.Generator, N: int, n: int | None):
    """One sample's draws in contract order: the subspace dimension (only when
    ``n`` is None), the support, the coefficients. Returns the unsorted
    support and the unit exponential weights; :func:`_scenarios` turns them
    into sorted supports and probabilities."""
    if n is None:
        n = int(rng.integers(1, N + 1))
    return rng.choice(N, size=n, replace=False), rng.standard_exponential(n)


def _draw_bounds(N: int, n: int, draws_dimension: bool) -> np.ndarray:
    """The exclusive bounds of one sample's 32-bit draws before its
    coefficients, in stream order, when numpy rejects none: the dimension
    (when it is drawn), Floyd's steps ``j = N - n..N - 1`` except ``j = 0``,
    which draws nothing, then the choice's shuffle steps ``i = n - 1..1``."""
    floyd = np.arange(max(N - n, 1) + 1, N + 1, dtype=np.uint64)
    shuffle = np.arange(n, 1, -1, dtype=np.uint64)
    return np.concatenate([np.full(int(draws_dimension), N, dtype=np.uint64), floyd, shuffle])


def _floyd_picks(values: np.ndarray, N: int) -> np.ndarray:
    """Floyd's set, one sample per row, from the bounded values
    ``values[:, t]`` of steps ``j = N - n + t``: a value already in the set
    is replaced by ``j``. Returns the picks in step order."""
    n = values.shape[1]
    steps = np.arange(n)
    # A value drawn at an earlier step is in the set, inserted then or before.
    # Sorted (value, step) keys put each repeat right after an earlier draw.
    keys = np.sort(values * n + steps, axis=1)
    repeated = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(repeated, keys[:, 1:] % n, keys[:, 1:] // n == keys[:, :-1] // n, axis=1)
    # Any other value is in the set only as the j of an earlier step that
    # replaced its own value; follow such links back to where they settle.
    earlier = values - (N - n)
    cells = np.arange(values.size).reshape(values.shape)
    linked = ~repeated & (earlier >= 0) & (earlier < steps)
    links = np.where(linked, cells - steps + earlier, cells).ravel()
    while not np.array_equal(hops := links[links], links):
        links = hops
    collided = repeated.ravel()[links].reshape(values.shape)
    return np.where(collided, N - n + steps, values)


def _support_picks(N: int, n: int, draws_dimension: bool, bounds: np.ndarray, words: np.ndarray):
    """The picks of ``choice(N, n, replace=False)``, in Floyd's step order,
    from raw PCG64 words, one sample per row, each row holding the draws of
    ``bounds = _draw_bounds(N, n, draws_dimension)``; and whether numpy may
    have rejected a draw of the row, which would make it draw more. Rows are
    taken in slices of at most ``EVAL_BLOCK_ENTRIES`` draws, as the kernel
    takes them."""
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
        floyd = values[:, int(draws_dimension) :][:, : n - (N == n)]
        if N == n:  # the step j = 0 draws nothing and picks 0
            floyd = np.concatenate([np.zeros((len(floyd), 1), dtype=np.int64), floyd], axis=1)
        picks[lo : lo + step] = _floyd_picks(floyd, N)
    return picks, rejected


def _chunk_draws(cfg: SweepConfig, start: int, stop: int):
    """The draws of samples ``start``..``stop - 1``, one ``(positions,
    supports, weights)`` per subspace dimension in increasing order, as
    :func:`_draw` makes them from :func:`sample_rng`: unsorted supports and
    unit exponential weights.

    Per sample, only the raw PCG64 words of its dimension and support draws
    are taken (their count follows from the dimension, read from the first
    word when it is drawn), then its exponentials, which start where the
    choice would have left off because 64-bit draws skip the buffered half
    word. :func:`_support_picks` then computes the supports of every sample
    of a dimension at once. A sample is drawn by :func:`_draw` instead when
    numpy may have rejected one of its draws, or when its choice shuffles
    the tail. Sample ``start`` is checked against :func:`_draw`, so a numpy
    that draws differently fails here.
    """
    N, draws_dimension = cfg.N, cfg.n is None
    taken = {}  # dimension -> positions, first raw words, further raw words, exponentials
    exact = {}  # position -> the draw of a sample drawn by _draw
    bounds = {}  # dimension -> _draw_bounds
    for i, rng in enumerate(_sample_generators(cfg.seed, start, stop)):
        bits, n, rejected = rng.bit_generator, cfg.n, False
        if draws_dimension:
            first = bits.random_raw()
            scaled = (first & _MASK32) * N
            n, rejected = (scaled >> 32) + 1, scaled & _MASK32 < N
        # numpy's choice shuffles the tail of range(N) instead of building
        # Floyd's set when N > 10,000 and n > N // 50.
        if rejected or (N > 10000 and n > N // 50):
            exact[i] = _draw(sample_rng(cfg.seed, start + i), N, cfg.n)
            n = len(exact[i][0])
        group = taken.get(n)
        if group is None:
            group = taken[n] = ([], [], [], [])
            bounds[n] = _draw_bounds(N, n, draws_dimension)
        positions, firsts, words, exponentials = group
        positions.append(i)
        if i in exact:
            continue
        if draws_dimension:
            firsts.append(first)
        words.append(bits.random_raw((len(bounds[n]) + 1) // 2 - draws_dimension))
        exponentials.append(rng.standard_exponential(n))
    groups = []
    for n in sorted(taken):
        positions, firsts, words, exponentials = taken[n]
        positions = np.array(positions)
        supports = np.empty((len(positions), n), dtype=np.intp)
        weights = np.empty((len(positions), n))
        rows = np.flatnonzero([i not in exact for i in positions.tolist()])
        if len(rows):
            words = np.concatenate(words).reshape(len(rows), -1)
            if draws_dimension:
                words = np.column_stack([np.array(firsts, dtype=np.uint64), words])
            supports[rows], rejected = _support_picks(N, n, draws_dimension, bounds[n], words)
            weights[rows] = np.concatenate(exponentials).reshape(len(rows), n)
            for i in positions[rows[rejected]].tolist():
                exact[i] = _draw(sample_rng(cfg.seed, start + i), N, cfg.n)
        for row, i in enumerate(positions.tolist()):
            if i in exact:
                supports[row], weights[row] = exact[i]
        groups.append((positions, supports, weights))
    support, weights = next((s[0], w[0]) for p, s, w in groups if p[0] == 0)
    want_support, want_weights = _draw(sample_rng(cfg.seed, start), N, cfg.n)
    same_support = np.array_equal(np.sort(support), np.sort(want_support))
    if not (same_support and np.array_equal(weights, want_weights)):
        raise RuntimeError(
            f"numpy {np.__version__} draws differently from the emulation of RNG contract "
            f"{RNG_CONTRACT} (seed {cfg.seed}, sample {start})"
        )
    return groups


def _scenarios(supports: np.ndarray, weights: np.ndarray):
    """Sorted supports and flat-simplex probabilities of draws, one per row
    (or of one draw, as 1-D arrays)."""
    return np.sort(supports, axis=-1), weights / weights.sum(axis=-1, keepdims=True)


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
    for positions, supports, weights in _chunk_draws(cfg, start, stop):
        block = block_from_probabilities(cfg.N, *_scenarios(supports, weights))
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


def two_path_grid_dataset(strategies, steps: int = 200) -> ScatterDataset:
    """The :func:`two_path_grid` chunks as one dataset."""
    return ScatterDataset(*two_path_grid(strategies, steps))


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

    payload = {
        "config": config,
        "wall_time": wall_time,
        "point_count": point_count,
        "envelope": [list(entry) for entry in envelope] if envelope is not None else None,
        "rng_contract": RNG_CONTRACT,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "platform": platform.platform(),
    }
    json.dump(payload, fileobj, indent=2)
    fileobj.write("\n")


def resolve_workers() -> int:
    """The process count a sampled sweep may use: the CPUs this process may
    run on (``os.sched_getaffinity``), or 1 where the platform cannot tell."""
    import os

    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))
