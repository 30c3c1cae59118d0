from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frontier import samplers
from frontier.errors import BudgetError
from frontier.graphs import load_graph
from frontier.rng import RngStream, _lane_generators, _lane_keys, _philox_keys
from frontier.samplers import CostModel, StartMode


def _seed_sequence_key(seed, path):
    return np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)


# seeds of one word, of several words, and up to 2**128 (five words)
_seeds = st.one_of(st.just(0), st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 128))
# path entries of one and of two words
_entries = st.one_of(st.integers(0, 9), st.integers(0, 2 ** 32 - 1),
                     st.integers(2 ** 32, 2 ** 64 - 1))


@given(_seeds, st.integers(0, 3).flatmap(
    lambda n: st.lists(st.tuples(*[_entries] * n), min_size=1, max_size=12)))
@settings(max_examples=300, deadline=None)
def test_philox_keys_match_seed_sequence(seed, paths):
    keys = _philox_keys(seed, np.asarray(paths, dtype=np.uint64).reshape(len(paths), -1))
    assert keys.dtype == np.uint64 and keys.shape == (len(paths), 2)
    for path, key in zip(paths, keys):
        assert np.array_equal(key, _seed_sequence_key(seed, path))


def test_philox_keys_mixed_word_counts_in_one_call():
    paths = [(1, 2), (2 ** 32, 2), (3, 2 ** 64 - 1), (2 ** 40, 2 ** 33), (0, 0)]
    for seed in (0, 2 ** 32 - 1, 2 ** 70 + 5, 2 ** 96 + 1):
        keys = _philox_keys(seed, paths)
        for path, key in zip(paths, keys):
            assert np.array_equal(key, _seed_sequence_key(seed, path))


_streams = st.builds(RngStream, _seeds,
                     st.lists(_entries, max_size=3).map(tuple))


def _draws(gen):
    # geometric, scalar and sized integers below and above 2**32 (the
    # narrow ones take buffered half words), and doubles
    return [gen.geometric(0.3, size=2), gen.integers(0, 7), gen.integers(0, 2 ** 40),
            gen.integers(0, 100, size=3), gen.random(), gen.integers(0, 2 ** 33, size=2),
            gen.integers(0, 5), gen.random(3)]


@given(st.lists(_streams, min_size=1, max_size=6), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_rekeyed_lane_matches_fresh_generator(rngs, walkers):
    lanes = _lane_generators(_lane_keys(rngs, walkers))
    streams = [rng.child(w) for rng in rngs for w in range(walkers)] if walkers else rngs
    for rng, gen in zip(streams, lanes):
        for got, want in zip(_draws(gen), _draws(rng.generator())):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("seed, path", [(-1, ()), (3, (1, -2))])
def test_stream_rejects_negative_seed_and_path(seed, path):
    with pytest.raises(ValueError, match="non-negative"):
        RngStream(seed, path)
    with pytest.raises(ValueError, match="non-negative"):
        RngStream(3).child(-1)


_GRAPH = load_graph("".join(f"{i} {(i * 7 + 3) % 40}\n{i} {i + 1}\n" for i in range(39)))


@given(st.lists(_streams, min_size=1, max_size=8), st.sampled_from(["fs", "mrw", "rw"]),
       st.sampled_from(["uniform", "degree"]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_batch_of_mixed_streams_matches_single_runs(rngs, method, kind, stochastic):
    m, start = 3, StartMode(kind)
    cost = CostModel(vertex_hit_ratio=0.4, stochastic_starts=stochastic)
    if method == "rw":
        batch = lambda: list(samplers._rw_batch(_GRAPH, start, 60.0, cost, rngs))
        one = lambda rng: samplers.single_rw(_GRAPH, start, 60.0, rng, cost)
    else:
        batch = lambda: list(getattr(samplers, f"_{method}_batch")(_GRAPH, m, start, 60.0,
                                                                  cost, rngs))
        single = samplers.frontier_sampling if method == "fs" else samplers.multiple_rw
        one = lambda rng: single(_GRAPH, m, start, 60.0, cost, rng)
    try:
        wants = [one(rng) for rng in rngs]
    except BudgetError:  # a drawn start cost beyond the budget
        with pytest.raises(BudgetError):
            batch()
        return
    for got, want in zip(batch(), wants, strict=True):
        for name in ("u", "v", "walker", "cost", "start_vertices"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert (got.spent, got.meta) == (want.spent, want.meta)


@given(st.lists(st.builds(RngStream, _seeds, st.lists(
    st.one_of(_entries, st.integers(2 ** 64, 2 ** 96)), min_size=1, max_size=3).map(tuple)),
    min_size=1, max_size=6), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_lane_keys_of_paths_past_64_bits_match_fresh_generators(rngs, walkers):
    # a path entry of 2**64 or more takes the object-array route of _path_array
    rngs.append(RngStream(rngs[0].seed, (2 ** 64,) + rngs[0].path[1:]))
    lanes = _lane_generators(_lane_keys(rngs, walkers))
    streams = [rng.child(w) for rng in rngs for w in range(walkers)] if walkers else rngs
    for rng, gen in zip(streams, lanes, strict=True):
        for got, want in zip(_draws(gen), _draws(rng.generator())):
            assert np.array_equal(got, want)


@given(_seeds, st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2 ** 28 - 1)),
                        min_size=1, max_size=5), st.sampled_from([0, 100]))
@settings(max_examples=30, deadline=None)
def test_lane_keys_of_the_harness_paths_never_call_seed_sequence(seed, paths, walkers):
    # the harness derives (method, run) paths, and mrw adds a walker index; all
    # are one-word entries, which _philox_keys hashes in its vectorized pass
    rngs = [RngStream(seed, path) for path in paths]
    streams = [rng.child(w) for rng in rngs for w in range(walkers)] if walkers else rngs
    want = [rng.generator().bit_generator.state["state"]["key"] for rng in streams]
    with mock.patch("numpy.random.SeedSequence", side_effect=AssertionError("SeedSequence")):
        got = _lane_keys(rngs, walkers)
    assert np.array_equal(got, np.asarray(want, dtype=np.uint64))
