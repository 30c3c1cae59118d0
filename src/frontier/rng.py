"""Deterministic random-stream derivation.

Every source of randomness in the package is a counter-based Philox
generator derived from a master seed plus an integer path (for example
``(run_index, walker_id)``).  Streams with distinct paths never overlap,
which keeps parallel Monte Carlo runs reproducible regardless of worker
count or scheduling order.

A Philox stream is fully given by its 128-bit key, which numpy derives
from ``SeedSequence(seed, spawn_key=path)``.  :meth:`RngStream.generator`
does that for one stream.  Batches of runs instead derive the keys of all
their lanes in one vectorized pass of the SeedSequence hash
(:func:`_philox_keys`) and re-key one reused Philox per lane
(:func:`_lane_generators`); each lane draws exactly the values that
``generator()`` of its stream draws.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream"]


@dataclass(frozen=True)
class RngStream:
    """A master seed plus a derivation path identifying one stream."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0 or any(i < 0 for i in self.path):
            raise ValueError("stream seed and path entries must be non-negative")

    def child(self, *indices: int) -> "RngStream":
        """Derive a sub-stream by extending the path."""
        return RngStream(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Instantiate the numpy generator for this stream."""
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def as_stream(seed_or_stream: "int | RngStream") -> RngStream:
    """Accept either a plain integer seed or an existing stream."""
    if isinstance(seed_or_stream, RngStream):
        return seed_or_stream
    return RngStream(int(seed_or_stream))


# -- many streams at once -------------------------------------------------------
#
# numpy's SeedSequence is O'Neill's seed_seq: the entropy words are hashed
# into a pool of 4 uint32 words, and the pool is hashed out into the state.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _int_words(x: int) -> list[int]:
    """Little-endian 32-bit words of ``x``, as SeedSequence splits an int."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _pool(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's pool of each row of the (G, W) uint32 ``entropy``, as
    its 4 columns."""
    h = _INIT_A

    def hashmix(x):
        nonlocal h
        x = x ^ np.uint32(h)
        h = h * _MULT_A & _MASK32
        x = x * np.uint32(h)
        return x ^ (x >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    n_rows, n_words = entropy.shape
    zero = np.zeros(n_rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, n_words):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    return pool


def _path_array(paths) -> np.ndarray:
    """``paths`` as a uint64 array, or an object array if an entry needs more."""
    try:
        return np.asarray(paths, dtype=np.uint64)
    except OverflowError:
        return np.asarray(paths, dtype=object)


def _philox_keys(seed: int, paths) -> np.ndarray:
    """(P, 2) uint64 Philox keys of the streams ``RngStream(seed, path)`` for
    the rows of ``paths``, a (P, L) array of non-negative ints; each row is
    ``SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)``.

    Each path entry is one or more 32-bit words, so rows are hashed in groups
    of equal word layout.
    """
    paths = _path_array(paths)
    n_paths, length = paths.shape
    seed_words = _int_words(int(seed))
    if length:  # with a spawn key, the run entropy is padded to the pool size
        seed_words += [0] * (_POOL - len(seed_words))
    # words[j][k]: word k of entry j (0 past the entry's end); count[:, j]: its words
    words, count = [], np.ones((n_paths, length), dtype=np.int64)
    for j in range(length):
        x = paths[:, j]
        words.append([(x & _MASK32).astype(np.uint32)])
        while (x > _MASK32).any():
            count[:, j] += x > _MASK32
            x = x >> 32
            words[j].append((x & _MASK32).astype(np.uint32))
    keys = np.empty((n_paths, 2), dtype=np.uint64)
    if (count == 1).all():  # the usual case, and no sort
        layouts, which = count[:1], np.zeros(n_paths, dtype=np.int64)
    else:
        layouts, which = np.unique(count, axis=0, return_inverse=True)
        which = which.ravel()
    for g, layout in enumerate(layouts):
        rows = np.flatnonzero(which == g)
        cols = [np.full(rows.size, w, dtype=np.uint32) for w in seed_words]
        cols += [words[j][k][rows] for j, n in enumerate(layout.tolist()) for k in range(n)]
        pool = _pool(np.stack(cols, axis=1))
        h, state = _INIT_B, []
        for i in range(2 * 2):  # two uint64 words
            x = pool[i % _POOL] ^ np.uint32(h)
            h = h * _MULT_B & _MASK32
            x = x * np.uint32(h)
            state.append((x ^ (x >> np.uint32(16))).astype(np.uint64))
        keys[rows, 0] = state[0] | state[1] << np.uint64(32)
        keys[rows, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def _lane_keys(rngs: list[RngStream], walkers: int = 0) -> np.ndarray:
    """Philox keys of the streams ``rngs``, in order; with ``walkers``, of
    each stream's children ``child(w)`` for ``w < walkers``, run-major."""
    per = max(walkers, 1)
    keys = np.empty((len(rngs) * per, 2), dtype=np.uint64)
    groups = defaultdict(list)
    for i, rng in enumerate(rngs):
        groups[rng.seed, len(rng.path)].append(i)
    for (seed, length), idx in groups.items():
        paths = _path_array([rngs[i].path for i in idx]).reshape(len(idx), length)
        rows = np.asarray(idx)
        if walkers:
            walker = np.tile(np.arange(walkers, dtype=paths.dtype), len(idx))
            paths = np.concatenate([np.repeat(paths, walkers, axis=0), walker[:, None]], axis=1)
            rows = (rows[:, None] * walkers + np.arange(walkers)).ravel()
        keys[rows] = _philox_keys(seed, paths)
    return keys


def _lane_generators(keys: np.ndarray):
    """For each of the (P, 2) Philox ``keys`` in turn, one generator at the
    start of that key's stream, as fresh as ``generator()``'s.  It is the same
    generator each time, re-keyed: finish a lane's draws before the next."""
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    key = [0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key[0], key[1] in keys.tolist():
        bit_gen.state = state
        yield gen
