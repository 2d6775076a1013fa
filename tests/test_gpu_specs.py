"""Unit tests for repro.gpu.specs."""

from dataclasses import astuple

import pytest

from repro.gpu.specs import A100, GENERIC, RTX3080, GPUSpec, by_name


class TestPresets:
    def test_a100_datasheet(self):
        assert A100.num_sms == 108
        assert A100.arch == "sm80"
        assert A100.peak_flops == pytest.approx(312e12)
        assert A100.mem_bandwidth == pytest.approx(1555e9)
        assert A100.l2_bytes == 40 * 1024 * 1024

    def test_rtx3080_datasheet(self):
        assert RTX3080.num_sms == 68
        assert RTX3080.arch == "sm86"
        assert RTX3080.shared_mem_per_block == 99 * 1024

    def test_a100_ridge_point(self):
        # P/W ~ 200 ops/byte — the MBCI threshold used throughout the paper.
        assert 195 < A100.flops_per_byte < 205

    def test_rtx3080_ridge_point(self):
        assert 150 < RTX3080.flops_per_byte < 160

    def test_shared_mem_block_le_sm(self):
        for gpu in (A100, RTX3080, GENERIC):
            assert gpu.shared_mem_per_block <= gpu.shared_mem_per_sm


class TestValidation:
    def test_rejects_zero_sms(self):
        with pytest.raises(ValueError):
            GPUSpec("x", "sm00", 0, 1e12, 1e11, 1024, 2048)

    def test_rejects_nonpositive_flops(self):
        with pytest.raises(ValueError):
            GPUSpec("x", "sm00", 4, 0, 1e11, 1024, 2048)

    def test_rejects_block_shm_over_sm(self):
        with pytest.raises(ValueError):
            GPUSpec("x", "sm00", 4, 1e12, 1e11, 4096, 2048)


class TestHelpers:
    def test_with_overrides(self):
        tweaked = A100.with_overrides(num_sms=4)
        assert tweaked.num_sms == 4
        assert tweaked.peak_flops == A100.peak_flops
        assert A100.num_sms == 108  # original untouched

    def test_hash_follows_the_fields(self):
        """The hash is computed once per spec, from its fields: equal specs
        hash alike, and an override gets the hash of its own fields."""
        same = A100.with_overrides()
        tweaked = A100.with_overrides(num_sms=4)
        assert same is not A100 and same == A100 and hash(same) == hash(A100)
        rebuilt = GPUSpec(*astuple(tweaked))
        assert hash(rebuilt) == hash(tweaked) != hash(A100)
        assert len({A100: 1, same: 2, tweaked: 3}) == 2

    def test_by_name_case_insensitive(self):
        assert by_name("a100") is A100
        assert by_name("RTX3080") is RTX3080

    def test_by_name_unknown(self):
        with pytest.raises(KeyError):
            by_name("H100")

    def test_frozen(self):
        with pytest.raises(Exception):
            A100.num_sms = 1  # type: ignore[misc]
