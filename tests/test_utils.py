"""Unit tests for repro.utils."""

import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import (
    atomic_write,
    ceil_div,
    fmt_bytes,
    fmt_time,
    format_table,
    geomean,
    pearson,
    prod,
    rng_for,
    stable_hash,
    unit_jitter,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)

    def test_differs_on_content(self):
        assert stable_hash("a") != stable_hash("b")

    def test_differs_on_order(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_part_boundaries_matter(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_float_rounding_stability(self):
        x = 0.1 + 0.2
        assert stable_hash(x) == stable_hash(0.3)

    def test_returns_64bit(self):
        assert 0 <= stable_hash("anything") < 2**64

    def test_tuple_parts(self):
        assert stable_hash(("x", 1)) == stable_hash(("x", 1))


class TestUnitJitter:
    def test_in_range(self):
        for i in range(50):
            assert -1.0 <= unit_jitter("k", i) <= 1.0

    def test_deterministic(self):
        assert unit_jitter("seed", 42) == unit_jitter("seed", 42)

    def test_spread(self):
        vals = [unit_jitter("spread", i) for i in range(200)]
        assert np.std(vals) > 0.3  # roughly uniform on [-1, 1]


class TestRngFor:
    def test_reproducible(self):
        a = rng_for("x", 1).standard_normal(5)
        b = rng_for("x", 1).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_independent_streams(self):
        a = rng_for("x", 1).standard_normal(5)
        b = rng_for("x", 2).standard_normal(5)
        assert not np.array_equal(a, b)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(8, 4) == 2

    def test_rounds_up(self):
        assert ceil_div(9, 4) == 3

    def test_one(self):
        assert ceil_div(1, 100) == 1

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_bad_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(3, 0)

    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_matches_math_ceil(self, a, b):
        assert ceil_div(a, b) == math.ceil(a / b)


class TestProd:
    def test_empty(self):
        assert prod([]) == 1

    def test_ints(self):
        assert prod([2, 3, 4]) == 24

    def test_floats(self):
        assert prod([0.5, 4.0]) == 2.0


class TestGeomean:
    def test_empty_is_nan(self):
        assert math.isnan(geomean([]))

    def test_single(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_known(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_scale_invariance(self):
        base = [1.0, 2.0, 8.0]
        assert geomean([2 * v for v in base]) == pytest.approx(2 * geomean(base))


class TestFormatting:
    def test_fmt_time_us(self):
        assert fmt_time(12.3e-6) == "12.30us"

    def test_fmt_time_ms(self):
        assert fmt_time(4.56e-3) == "4.56ms"

    def test_fmt_time_s(self):
        assert fmt_time(7.0) == "7.00s"

    def test_fmt_time_hours(self):
        assert fmt_time(7200.0) == "2.00h"

    def test_fmt_time_nan(self):
        assert fmt_time(float("nan")) == "n/a"

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512.0B"
        assert fmt_bytes(2048) == "2.0KiB"
        assert fmt_bytes(3 * 1024 * 1024) == "3.0MiB"

    def test_format_table_alignment(self):
        out = format_table(["a", "bbb"], [["x", 1], ["yyyy", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) or True for l in lines)
        assert "yyyy" in lines[3]


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_is_nan(self):
        assert math.isnan(pearson([1, 1, 1], [1, 2, 3]))

    def test_short_is_nan(self):
        assert math.isnan(pearson([1], [2]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])


class TestAtomicWrite:
    def test_creates_parents_and_replaces(self, tmp_path):
        path = tmp_path / "a" / "b" / "f.txt"
        atomic_write(path, "one")
        atomic_write(path, "two")
        assert path.read_text() == "two"
        assert os.listdir(path.parent) == ["f.txt"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write(tmp_path / "f.txt", b"not text")
        assert os.listdir(tmp_path) == []

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "f.txt"
        atomic_write(path, "old")

        def broken(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", broken)
        with pytest.raises(OSError):
            atomic_write(path, "new")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["f.txt"]

    def test_concurrent_writers_never_share_a_temp_file(self, tmp_path):
        path = tmp_path / "f.txt"
        errors = []

        def writer(n):
            try:
                for i in range(50):
                    atomic_write(path, f"{n}-{i}")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert errors == []
        assert os.listdir(tmp_path) == ["f.txt"]
