"""Microbenchmark — the search builds one schedule per template core, plus the best.

Not a paper figure: this measures the engine's pricing path. Candidates
are priced and measured from per-expression schedule templates, so the
tuning path builds one schedule per template (a distinct extent-1 loop set
of an expression) plus the returned best. Template cores are memoized per
process on the chain's size-free structure, so a second chain of the same
structure binds every template and builds only its best.

The benchmark counts *actual* ``build_schedule`` invocations during two
full tunes of the Fig. 7 GEMM chain's structure, from empty memos: the
cold tune builds exactly one schedule per template, the warm tune none,
and each builds exactly one lazy schedule (its best).

Run: pytest benchmarks/test_engine_micro.py --benchmark-only -q -rA
"""

from conftest import show

import repro.search.engine.pipeline as pipeline_mod
import repro.search.space as space_mod
from repro.config import SessionConfig
from repro.experiments.common import ExperimentResult
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.space import SearchSpace
from repro.search.tuner import MCFuserTuner
from repro.tiling.schedule import build_schedule as real_build
from repro.utils import clear_memos


def test_schedules_built_once(run_once, monkeypatch):
    counts = {"templates": 0, "lazy": 0}

    def template_build(*args, **kwargs):
        counts["templates"] += 1
        return real_build(*args, **kwargs)

    def lazy_build(*args, **kwargs):
        counts["lazy"] += 1
        return real_build(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "build_schedule", template_build)
    monkeypatch.setattr(space_mod, "build_schedule", lazy_build)

    touched: set[tuple] = set()
    real_schedule_for = SearchSpace.schedule_for

    def tracking_schedule_for(self, cand):
        touched.add(cand.key)
        return real_schedule_for(self, cand)

    monkeypatch.setattr(SearchSpace, "schedule_for", tracking_schedule_for)

    spaces: list[SearchSpace] = []
    real_build_space = MCFuserTuner.build_space

    def tracking_build_space(self, chain, clock=None):
        spaces.append(real_build_space(self, chain, clock))
        return spaces[-1]

    monkeypatch.setattr(MCFuserTuner, "build_space", tracking_build_space)

    def tune(name):
        before = dict(counts)
        touched.clear()
        chain = gemm_chain(1, 1024, 1024, 512, 512, name=name)
        report = MCFuserTuner(A100, config=SessionConfig.make(seed=0)).tune(chain)
        built = {k: counts[k] - before[k] for k in counts}
        return report, spaces[-1], built, set(touched)

    clear_memos()
    report, cold, cold_built, cold_touched = run_once(tune, "engine-micro")
    warm_report, warm, warm_built, warm_touched = tune("engine-micro-warm")

    measured = len(report.search.measured)
    # Building every enumerated Rule-3 point would cost at least this many.
    per_point = report.pruning.after_rule3

    show(
        ExperimentResult(
            name="Engine micro: build_schedule invocations (GEMM chain, full tune)",
            headers=["where", "cold memo", "warm memo"],
            rows=[
                ["templates built (pricing)", cold_built["templates"], warm_built["templates"]],
                ["templates bound from the memo", cold.templates_bound, warm.templates_bound],
                ["lazy schedules (returned best)", cold_built["lazy"], warm_built["lazy"]],
                ["total builds", cold.schedules_built, warm.schedules_built],
                ["distinct measured candidates (no build)", measured, len(warm_report.search.measured)],
                ["distinct schedules requested", len(cold_touched), len(warm_touched)],
                ["model estimates (no build)", report.search.num_estimates, warm_report.search.num_estimates],
                ["Rule-3 points (one build each if built eagerly)", per_point, warm_report.pruning.after_rule3],
            ],
        )
    )

    assert report.best_time > 0
    assert measured > 0
    # Empty memo: one build per distinct template core, none bound.
    assert cold_built["templates"] == cold.templates > 0
    assert cold.templates_bound == 0
    # Warm memo: the same structure binds every template and builds none.
    assert warm_built["templates"] == 0
    assert warm.templates_bound == warm.templates == cold.templates
    # The acceptance bar: the returned best is the only schedule built
    # outside pricing.
    assert cold_built["lazy"] == warm_built["lazy"] == 1
    assert cold_touched == {report.best_candidate.key}
    assert warm_touched == {warm_report.best_candidate.key}
    assert cold.schedules_built == cold.templates + 1
    assert warm.schedules_built == 1
    assert cold.schedules_built < per_point
