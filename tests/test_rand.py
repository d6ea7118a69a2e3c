"""Replication generators: batch seeding against numpy's own SeedSequence.

``substream`` copies ``SeedSequence``'s hash, so these tests are the guard
against numpy changing it: every generator must be in the state
``default_rng(SeedSequence([seed, stream, r]))`` puts it in.
"""

import numpy as np
import pytest

from quickdetect._rand import _ROWS, row_chunks, substream

#: seeds and streams of one to three uint32 words: keys of three to seven
#: entropy words, so both sides of the four-word pool are covered
SEEDS = (0, 1, 20261017, 2**32 - 1, 2**32, 2**64 + 5)
STREAMS = (0, 1, 14, 2**32 + 3, 2**96 + 1)
#: per (seed, stream): the first indices, r = 0 included, and the last ones below 2**32
INDICES = (range(3_300), range(2**32 - 40, 2**32))


def reference(seed, stream, r):
    return np.random.default_rng(np.random.SeedSequence([seed, stream, r]))


def test_states_and_first_normals_equal_numpy_on_1e5_keys():
    keys = 0
    for seed in SEEDS:
        for stream in STREAMS:
            for rows in INDICES:
                for r, rng in zip(rows, substream(seed, stream, rows), strict=True):
                    expected = reference(seed, stream, r)
                    assert rng.bit_generator.state == expected.bit_generator.state, (seed, stream, r)
                    assert rng.standard_normal(2).tolist() == expected.standard_normal(2).tolist()
                    keys += 1
    assert keys >= 10**5


def test_any_range_gives_the_keys_of_its_indices():
    whole = substream(9, 12, range(200))
    for rows in (range(64, 128), range(199, -1, -7), range(5, 6)):
        got = substream(9, 12, rows)
        assert [g.bit_generator.state for g in got] == [whole[r].bit_generator.state for r in rows]
    assert substream(9, 12, range(0)) == []


def test_generators_are_independent_objects():
    first, second = substream(3, 11, range(2))
    a = first.normal(size=5)
    assert second.bit_generator.state == reference(3, 11, 1).bit_generator.state
    assert a.tolist() == reference(3, 11, 0).normal(size=5).tolist()


@pytest.mark.parametrize("mu,sd", [(0.0, 1.0), (1.0, 1.0), (0.0199, 0.2306)])
def test_a_draw_split_in_rounds_equals_one_draw(mu, sd):
    # calib's stores draw a stream in rounds of 32 and 256 steps; where a
    # round ends must not change a single normal
    for split, whole in zip(substream(20261017, 12, range(40)), substream(20261017, 12, range(40))):
        parts = [split.normal(mu, sd, n) for n in (32, 224, 256)]
        assert np.concatenate(parts).tobytes() == whole.normal(mu, sd, 512).tobytes()
        assert split.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize(
    "seed,stream,rows,message",
    [
        (-1, 0, range(3), "seed must be nonnegative"),
        (0, -1, range(3), "stream must be nonnegative"),
        (0, 0, range(-1, 2), "nonnegative"),
        (0, 0, range(2**32, 2**32 + 1), "below 2\\*\\*32"),
        (0, 0, range(2**32 - 1, 2**32 + 1), "below 2\\*\\*32"),
        (2**4096, 0, range(3), "not supported"),
    ],
)
def test_refuses_keys_it_cannot_seed(seed, stream, rows, message):
    with pytest.raises(ValueError, match=message):
        substream(seed, stream, rows)


def test_row_chunks_cover_every_replication_once_in_order():
    for n in (1, _ROWS, _ROWS + 1, 3 * _ROWS + 5):
        chunks = list(row_chunks(n))
        assert [r for rows in chunks for r in rows] == list(range(n))
        assert max(len(rows) for rows in chunks) <= _ROWS

