"""Unit tests for the four pruning rules (§III-C)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.pruning import (
    MIN_TILE,
    PADDING_RATIO_LIMIT,
    RULE4_SLACK,
    expression_classes,
    padding_ratio,
    rule2_class_survives,
    rule3_tile_options,
    rule4_ok,
    unconstrained_tile_count,
)
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule


class TestRule1:
    def test_gemm_chain_three_classes(self, small_gemm):
        classes = expression_classes(small_gemm)
        assert set(classes) == {"nk", "kn", "n(k,h)"}

    def test_representatives_are_canonical(self, small_gemm):
        classes = expression_classes(small_gemm)
        assert classes["nk"].render() == "mhnk"
        assert classes["kn"].render() == "mhkn"
        assert classes["n(k,h)"].render() == "mn(k,h)"

    def test_representative_same_class(self, small_gemm):
        from repro.tiling.enumeration import sub_tiling_expr

        for key, rep in expression_classes(small_gemm).items():
            assert sub_tiling_expr(small_gemm, rep).render() == key


class TestRule2:
    def test_nk_survives(self, small_gemm):
        rep = expression_classes(small_gemm)["nk"]
        assert rule2_class_survives(small_gemm, rep)

    def test_kn_pruned(self, small_gemm):
        rep = expression_classes(small_gemm)["kn"]
        assert not rule2_class_survives(small_gemm, rep)

    def test_flat_survives_at_class_level(self, small_gemm):
        rep = expression_classes(small_gemm)["n(k,h)"]
        assert rule2_class_survives(small_gemm, rep)

    def test_candidate_level_flat_needs_full_h(self, small_gemm):
        rep = expression_classes(small_gemm)["n(k,h)"]
        partial = build_schedule(small_gemm, rep, {"m": 32, "n": 16, "k": 16, "h": 16})
        full = build_schedule(small_gemm, rep, {"m": 32, "n": 16, "k": 16, "h": 48})
        assert not partial.single_live_copies()
        assert full.single_live_copies()


class TestRule3:
    def test_pow2_only_divisors(self):
        assert rule3_tile_options(1024) == [16, 32, 64, 128, 256, 512, 1024]

    def test_pow2_512(self):
        assert rule3_tile_options(512) == [16, 32, 64, 128, 256, 512]

    def test_non_pow2_padding_limit(self):
        opts = rule3_tile_options(80)
        assert 16 in opts and 80 in opts
        assert 32 not in opts  # would pad 80 -> 96, ratio 0.2 > 0.05

    def test_tiny_dimension_exact_divisors(self):
        # sub-16 dims admit exact divisor tiles, never a lone padded
        # tile of 16 that wastes half the block
        assert rule3_tile_options(8) == [1, 2, 4, 8]
        assert rule3_tile_options(12) == [1, 2, 3, 4, 6, 12]
        assert rule3_tile_options(1) == [1]
        assert rule3_tile_options(7) == [1, 7]

    def test_exact_multiples_allowed_for_non_pow2(self):
        opts = rule3_tile_options(96)
        assert opts == [16, 32, 48, 96]

    def test_all_multiples_of_16(self):
        for size in (48, 80, 100, 256, 1000):
            assert all(t % MIN_TILE == 0 for t in rule3_tile_options(size))

    @pytest.mark.parametrize(
        "size, expected",
        [
            # pow2: exact divisor tiles only, 16..size
            (16, [16]),
            (64, [16, 32, 64]),
            (256, [16, 32, 64, 128, 256]),
            # non-pow2: multiples of 16 within the 5% padded-waste budget
            (48, [16, 48]),
            (80, [16, 80]),
            (96, [16, 32, 48, 96]),
            (100, [112]),  # nothing within 5%; single padded fallback
            (1000, [16, 32, 48, 64, 80, 112, 128, 144, 208, 256, 336, 512]),
            # sub-16: exact divisors of the dimension itself
            (2, [1, 2]),
            (6, [1, 2, 3, 6]),
            (15, [1, 3, 5, 15]),
        ],
    )
    def test_rule3_table(self, size, expected):
        assert rule3_tile_options(size) == expected

    @given(st.integers(1, 4096))
    def test_no_padding_when_waste_free_divisor_exists(self, size):
        # regression (issue 8 satellite): when a waste-free divisor tile
        # exists, no admitted candidate may waste more than 5% padding
        opts = rule3_tile_options(size)
        has_waste_free = any(padding_ratio(size, t) == 0.0 for t in opts)
        if has_waste_free:
            assert all(padding_ratio(size, t) <= PADDING_RATIO_LIMIT for t in opts)

    def test_padding_ratio_is_padded_relative(self):
        # waste measured against the padded extent, boundary inclusive
        assert padding_ratio(96, 16) == 0.0
        assert padding_ratio(80, 32) == pytest.approx(16 / 96)
        # 304 -> tile 160 pads to 320: 16/320 = 0.05 exactly -> admitted
        # (the boundary is inclusive, and the old size-relative metric
        # would have read 16/304 ≈ 0.053 and rejected it)
        assert padding_ratio(304, 160) == pytest.approx(0.05)
        assert 160 in rule3_tile_options(304)

    def test_unconstrained_count(self):
        assert unconstrained_tile_count(1024) == 64
        assert unconstrained_tile_count(512) == 32
        assert unconstrained_tile_count(1) == 1

    @given(st.integers(1, 4096))
    def test_options_within_unconstrained(self, size):
        opts = rule3_tile_options(size)
        assert len(opts) >= 1
        if size >= MIN_TILE:
            # the paper's space accounting (multiples of 16); sub-16 dims
            # draw from exact divisors instead, a different pool
            assert len(opts) <= max(unconstrained_tile_count(size), 1)

    @given(st.integers(16, 2048))
    def test_padding_ratio_bounded(self, size):
        # waste is relative to the *padded* extent, boundary inclusive;
        # the lone fallback tile is exempt (nothing fit the budget)
        opts = rule3_tile_options(size)
        for t in opts:
            if not (size & (size - 1)) == 0:  # non-pow2
                assert padding_ratio(size, t) <= PADDING_RATIO_LIMIT or len(opts) == 1


class TestBucketTiles:
    """A bucket tunes at its power-of-two ceiling, where Rule 3 admits
    only the multiples of 16 that divide the ceiling."""

    def test_bucket_options_are_ceiling_divisors(self):
        for ceiling in (16, 64, 512, 1024):
            opts = rule3_tile_options(ceiling)
            assert opts == [t for t in range(16, ceiling + 1, 16) if ceiling % t == 0]

    def test_tile_legal_for_bucket(self):
        opts = rule3_tile_options(512)
        assert 64 in opts and 512 in opts
        assert 96 not in opts  # not a divisor
        assert 1024 not in opts  # exceeds the ceiling

    @given(st.sampled_from([16, 32, 64, 128, 256, 512, 1024]), st.data())
    def test_in_bucket_lengths_never_overrun_ceiling(self, ceiling, data):
        # legality argument: for any in-bucket length, every admitted
        # ceiling tile pads the length to at most the ceiling itself
        from repro.utils import ceil_div

        length = data.draw(st.integers(ceiling // 2 + 1, ceiling))
        for t in rule3_tile_options(ceiling):
            assert ceil_div(length, t) * t <= ceiling


class TestRule4:
    def test_small_tiles_pass(self, small_gemm):
        s = build_schedule(
            small_gemm, TilingExpr.parse("mhnk"), {"m": 16, "n": 16, "k": 16, "h": 16}
        )
        assert rule4_ok(s, A100)

    def test_huge_tiles_fail(self):
        chain = gemm_chain(1, 1024, 1024, 512, 512)
        s = build_schedule(
            chain, TilingExpr.parse("mhnk"), {"m": 512, "n": 512, "k": 128, "h": 128}
        )
        assert not rule4_ok(s, A100)

    def test_slack_factor(self, small_gemm):
        s = build_schedule(
            small_gemm, TilingExpr.parse("mhnk"), {"m": 96, "n": 80, "k": 64, "h": 48}
        )
        est = s.shm_estimate()
        tight = A100.with_overrides(
            shared_mem_per_block=int(est / RULE4_SLACK) + 1,
            shared_mem_per_sm=max(int(est / RULE4_SLACK) + 1, 164 * 1024),
        )
        assert rule4_ok(s, tight)
        tighter = A100.with_overrides(
            shared_mem_per_block=int(est / RULE4_SLACK) - 100,
            shared_mem_per_sm=164 * 1024,
        )
        assert not rule4_ok(s, tighter)
