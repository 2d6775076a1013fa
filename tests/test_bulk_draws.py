"""BulkIntegers serves exactly what scalar ``Generator.integers`` would.

The evolutionary search takes each generation's mutation draws from one
block of raw uint32 draws. That is only sound while numpy draws a bounded
integer with Lemire's rule on one uint32 per try; a numpy release that
changes its bounded-integer algorithm fails here, by name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.search.engine.strategy import BulkIntegers

#: Rejects a quarter of its uint32 draws: (2**32 - n) % n == 2**30.
REJECTING_BOUND = 3 * 2**30


def _bounds(seed: int, count: int) -> list[int]:
    """A deterministic mix of small bounds (1 included) and rejecting ones."""
    picker = np.random.default_rng(10_000 + seed)
    pool = [*range(1, 9), REJECTING_BOUND, REJECTING_BOUND + 1, 2**31 + 1, 2**32 - 1, 2**32]
    return [pool[i] for i in picker.integers(len(pool), size=count)]


def _assert_same_state(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n", [*range(1, 9), REJECTING_BOUND, 2**32])
def test_each_bound_matches_scalar_draws(n):
    scalar, bulk = np.random.default_rng(7), np.random.default_rng(7)
    expected = [int(scalar.integers(n)) for _ in range(300)]
    with BulkIntegers(bulk, 64) as draws:
        got = [draws.integers(n) for _ in range(300)]
    assert got == expected
    _assert_same_state(scalar, bulk)


def test_bound_one_consumes_nothing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with BulkIntegers(rng, 8) as draws:
        assert [draws.integers(1) for _ in range(20)] == [0] * 20
    assert rng.bit_generator.state == before


def test_rejection_branch_is_taken_and_matches():
    # Some draw must be rejected (more uint32s used than values returned)
    # for this to exercise the rejection loop.
    scalar, bulk = np.random.default_rng(11), np.random.default_rng(11)
    expected = [int(scalar.integers(REJECTING_BOUND)) for _ in range(200)]
    with BulkIntegers(bulk, 16) as draws:
        got = [draws.integers(REJECTING_BOUND) for _ in range(200)]
        used = draws._used
    assert got == expected
    assert used > 200
    _assert_same_state(scalar, bulk)


def test_block_grows_past_its_initial_size():
    scalar, bulk = np.random.default_rng(5), np.random.default_rng(5)
    bounds = _bounds(0, 500)
    expected = [int(scalar.integers(n)) for n in bounds]
    with BulkIntegers(bulk, 3) as draws:
        got = [draws.integers(n) for n in bounds]
        assert len(draws._block) > 3
    assert got == expected
    _assert_same_state(scalar, bulk)


@pytest.mark.parametrize("seed", range(50))
def test_interleaved_stream_is_the_scalar_stream(seed):
    """Batches between ``random``/``choice``/``integers`` calls leave the
    values and the generator state exactly as scalar draws would."""
    scalar, bulk = np.random.default_rng(seed), np.random.default_rng(seed)

    def between(rng):
        return (
            float(rng.random()),
            rng.choice(17, size=4, p=np.full(17, 1 / 17)).tolist(),
            int(rng.integers(1000)),
            rng.choice(9, size=3, replace=False).tolist(),
        )

    for batch in range(3):
        assert between(scalar) == between(bulk)
        bounds = _bounds(seed * 3 + batch, 40 + 30 * batch)
        expected = [int(scalar.integers(n)) for n in bounds]
        with BulkIntegers(bulk, 2 * len(bounds) // 3) as draws:
            got = [draws.integers(n) for n in bounds]
        assert got == expected
        _assert_same_state(scalar, bulk)
    assert between(scalar) == between(bulk)


@pytest.mark.parametrize("n", [0, -3, 2**32 + 1])
def test_out_of_range_bounds_rejected(n):
    with BulkIntegers(np.random.default_rng(0), 4) as draws:
        with pytest.raises(ValueError):
            draws.integers(n)
