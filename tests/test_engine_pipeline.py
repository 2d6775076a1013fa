"""Engine space generation: the frozen space, its Fig. 7 funnel, lazy schedules."""

import dataclasses
import sys

import pytest

from repro.config import SessionConfig
from repro.frontend.partition import partition_graph
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.engine import pipeline as pipeline_mod
from repro.search.engine.loop import SearchLoop
from repro.search.space import generate_space
from repro.search.tuner import MCFuserTuner
from repro.tiling import schedule as schedule_mod
from repro.workloads import build_workload, workload_names


def _chain(name="eng"):
    return gemm_chain(1, 256, 256, 128, 128, name=name)


#: The Fig. 7 funnel of ``gemm_chain(1, 1024, 1024, 512, 512)`` on the A100:
#: ``(expressions, classes_rule1, classes_rule2, original, after_rule1,
#: after_rule2, after_rule3, after_rule4)`` per space variant.
FIG7_FUNNELS = {
    "default": (
        {},
        (26, 3, 2, 109051904, 12582912, 8388608, 2268, 824),
    ),
    "chimera": (
        {"deep_only": True, "optimize_schedules": False},
        (24, 2, 1, 100663296, 8388608, 4194304, 1764, 751),
    ),
}


class TestFrozenSpace:
    @pytest.mark.parametrize("variant", sorted(FIG7_FUNNELS))
    def test_stats_match_pre_engine_funnel(self, variant):
        kwargs, want = FIG7_FUNNELS[variant]
        chain = gemm_chain(1, 1024, 1024, 512, 512, name=f"eng-fig7-{variant}")
        stats = generate_space(chain, A100, **kwargs).stats
        assert dataclasses.astuple(stats) == want
        assert stats.original == stats.expressions * 64 * 64 * 32 * 32

    def test_funnel_tail_counts_the_space(self):
        space = generate_space(_chain("tail"), A100)
        stats = space.stats
        assert stats.after_rule4 == len(space)
        assert stats.after_rule3 >= stats.after_rule4

    def test_schedule_for_memoizes(self):
        # Candidates carry prices, not schedules: a schedule is built on the
        # first request only, then memoized.
        space = generate_space(_chain("memo"), A100)
        cand = space.candidates[0]
        before = space.schedules_built
        sched = space.schedule_for(cand)
        assert space.schedule_for(cand) is sched
        assert space.schedules_built == before + 1
        assert space.prices.total[0] > 0

    def test_max_candidates_caps(self):
        space = generate_space(_chain("cap"), A100, max_candidates=20)
        assert len(space.candidates) == 20
        assert len(space) == 20
        assert space.stats.after_rule4 > 20

    def test_candidates_tuple_immutable(self):
        space = generate_space(_chain("frz1"), A100)
        assert isinstance(space.candidates, tuple)
        with pytest.raises(AttributeError):
            space.candidates = ()


def _generated_spaces():
    """Every paper chain's space (default, Chimera's, capped), then the
    spaces of one partitioned zoo model's fusion groups."""
    for name in workload_names(level="chain"):
        chain = build_workload(name)
        yield f"{name}-default", generate_space(chain, A100)
        yield f"{name}-chimera", generate_space(
            chain, A100, deep_only=True, optimize_schedules=False
        )
        yield f"{name}-capped", generate_space(chain, A100, max_candidates=100)
    for sg in partition_graph(build_workload("bert-small"), A100).subgraphs:
        yield f"bert-small-{sg.chain.name}", generate_space(sg.chain, A100)


def test_generated_keys_are_unique_in_strictly_increasing_code_order():
    """What positions as identities rest on: in every generated space, the
    Rule-3 options increase strictly and every tile is one of them, and
    the mixed-radix codes ``(expression rank, option index per loop)``
    increase strictly with position, so no key is held twice."""
    checked = 0
    for where, space in _generated_spaces():
        loops = space.chain.loop_names
        index = {}
        for loop in loops:
            options = space.tile_options[loop]
            assert options == sorted(set(options)), (where, loop)
            index[loop] = {t: i for i, t in enumerate(options)}
        ranks: dict[str, int] = {}
        codes = []
        for cand in space.candidates:
            rank = ranks.setdefault(cand.key[0], len(ranks))
            tiles = cand.tile_dict
            codes.append((rank, *(index[loop][tiles[loop]] for loop in loops)))
        assert all(a < b for a, b in zip(codes, codes[1:])), where
        assert len({c.key for c in space.candidates}) == len(space), where
        checked += 1
    assert checked > 3 * 21


class TestSingleBuild:
    """The search builds a schedule per template core the memo lacks and
    for the returned best; it measures candidates from template launches,
    and builds per measured candidate only to verify it (``verify="all"``).
    Every test starts with empty memos (``conftest.py``)."""

    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"pipeline": 0, "space": 0}
        real = schedule_mod.build_schedule

        def counting(where):
            def _build(*args, **kwargs):
                counts[where] += 1
                return real(*args, **kwargs)

            return _build

        # Each consumer imported the symbol into its own namespace.
        monkeypatch.setattr(pipeline_mod, "build_schedule", counting("pipeline"))
        import repro.search.space as space_mod

        monkeypatch.setattr(space_mod, "build_schedule", counting("space"))
        return counts

    @staticmethod
    def _tune(monkeypatch, name, batch=1, **config):
        spaces = []
        real_build_space = MCFuserTuner.build_space

        def build_space(self, chain, clock=None):
            spaces.append(real_build_space(self, chain, clock))
            return spaces[-1]

        monkeypatch.setattr(MCFuserTuner, "build_space", build_space)
        chain = gemm_chain(batch, 256, 256, 64, 64, name=name)
        report = MCFuserTuner(A100, config=SessionConfig.make(seed=0, **config)).tune(chain)
        (space,) = spaces
        return report, space

    def test_schedules_built_once_per_candidate(self, counters, monkeypatch):
        report, space = self._tune(monkeypatch, "onebuild")
        # Pricing builds one schedule per template, far fewer than points.
        assert counters["pipeline"] == space.templates
        assert space.templates_bound == 0
        assert space.templates < report.pruning.after_rule3
        # Beyond that: one build, the returned best; none per measurement
        # or estimate.
        total = counters["pipeline"] + counters["space"]
        assert total == space.schedules_built == space.templates + 1
        assert report.search.num_measurements > 0
        assert report.search.num_estimates > total

    def test_warm_memo_builds_only_the_best(self, counters, monkeypatch):
        _, cold = self._tune(monkeypatch, "onebuild-cold")
        built = counters["pipeline"]
        assert built == cold.templates
        # Another chain of the same structure (name and batch do not count)
        # binds every template from the memo and builds none.
        report, warm = self._tune(monkeypatch, "onebuild-warm", batch=2)
        assert counters["pipeline"] == built
        assert warm.templates_bound == warm.templates == cold.templates
        assert warm.schedules_built == 1
        assert report.best_schedule.chain.batch == 2

    def test_verify_all_builds_each_measured_candidate_once(self, counters, monkeypatch):
        report, space = self._tune(monkeypatch, "onebuild-verify", verify="all")
        measured = report.search.measured
        # Every launch fit, so every measured candidate was built and
        # checked once; the returned best is one of them.
        assert all(t < float("inf") for t in measured.values())
        assert report.best_candidate.key in measured
        assert counters["pipeline"] == space.templates
        assert space.templates_bound == 0
        total = counters["pipeline"] + counters["space"]
        assert total == space.schedules_built == space.templates + len(measured)

    def test_default_cold_tune_builds_nothing_while_searching(self, monkeypatch):
        state = {"searching": False, "builds": 0, "searched": 0}
        real_build = schedule_mod.build_schedule

        def build(*args, **kwargs):
            state["builds"] += state["searching"]
            return real_build(*args, **kwargs)

        # Every repro module that imported build_schedule gets the counter.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and getattr(mod, "build_schedule", None) is real_build:
                monkeypatch.setattr(mod, "build_schedule", build)
        real_run = SearchLoop.run

        def run(self, strategy):
            state["searching"] = True
            try:
                return real_run(self, strategy)
            finally:
                state["searching"] = False
                state["searched"] += 1

        monkeypatch.setattr(SearchLoop, "run", run)
        chain = gemm_chain(1, 256, 256, 64, 64, name="nobuild-search")
        report = MCFuserTuner(A100, config=SessionConfig.make(seed=0)).tune(chain)
        assert state["searched"] == 1
        assert report.search.num_measurements > 0
        assert state["builds"] == 0
