"""Unit tests for search-space generation and the Fig. 7 funnel."""

import pytest

from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.pruning import rule4_ok
from repro.search.space import generate_space


@pytest.fixture(scope="module")
def space():
    return generate_space(gemm_chain(1, 256, 256, 128, 128, name="sp"), A100)


class TestGeneration:
    def test_nonempty(self, space):
        assert len(space) > 50

    def test_all_candidates_valid(self, space):
        for cand in space.candidates[::7]:
            sched = space.schedule_for(cand)
            sched.check_valid()
            assert sched.single_live_copies()
            assert rule4_ok(sched, A100)

    def test_all_tiles_from_rule3(self, space):
        for cand in space.candidates:
            for loop, tile in cand.tiles:
                assert tile in space.tile_options[loop]

    def test_deterministic(self):
        chain = gemm_chain(1, 256, 256, 128, 128, name="sp2")
        a = generate_space(chain, A100)
        b = generate_space(chain, A100)
        assert [c.key for c in a.candidates] == [c.key for c in b.candidates]

    def test_max_candidates_cap(self):
        chain = gemm_chain(1, 256, 256, 128, 128, name="sp3")
        capped = generate_space(chain, A100, max_candidates=20)
        assert len(capped) == 20

    def test_deep_only_excludes_flat(self):
        chain = gemm_chain(1, 256, 256, 128, 128, name="sp4")
        deep = generate_space(chain, A100, deep_only=True)
        assert all(c.expr.is_deep for c in deep.candidates)

    def test_full_space_includes_flat(self, space):
        assert any(not c.expr.is_deep for c in space.candidates)


class TestFunnel:
    def test_paper_example_counts(self):
        """The Fig. 7 configuration: M=N=1024, K=H=512."""
        chain = gemm_chain(1, 1024, 1024, 512, 512, name="fig7t")
        stats = generate_space(chain, A100).stats
        assert stats.expressions == 26
        assert stats.original == 26 * 64 * 64 * 32 * 32  # 109,051,904
        assert stats.classes_rule1 == 3
        assert stats.classes_rule2 == 2
        assert stats.after_rule1 == 3 * 64 * 64 * 32 * 32
        # Rule 3 cuts ~99.97% of tile combinations.
        assert stats.after_rule3 < stats.after_rule2 * 1e-3
        # Rule 4 removes a meaningful further fraction.
        assert stats.after_rule4 < stats.after_rule3
        assert stats.after_rule4 > 100

    def test_funnel_monotone(self, space):
        counts = [c for _, c in space.stats.funnel()]
        assert counts == sorted(counts, reverse=True)

    def test_candidate_key_describe(self, space):
        cand = space.candidates[0]
        assert cand.expr.render() in cand.describe()
        assert cand.tile_dict.keys() == {"m", "n", "k", "h"}
