"""Microbenchmark — the search builds one schedule per template, plus the best.

Not a paper figure: this measures the engine's pricing path. Candidates
are priced and measured from per-expression schedule templates, so the
tuning path builds one schedule per template (a distinct extent-1 loop set
of an expression) plus the returned best.

The benchmark counts *actual* ``build_schedule`` invocations during a full
tune of the Fig. 7 GEMM chain and asserts exactly one lazy build (the
best), with the total below the number of Rule-3 points.

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

    chain = gemm_chain(1, 1024, 1024, 512, 512, name="engine-micro")
    report = run_once(
        MCFuserTuner(A100, config=SessionConfig.make(seed=0)).tune, chain
    )

    builds = counts["templates"] + counts["lazy"]
    measured = len(report.search.measured)
    # Building every enumerated Rule-3 point would cost at least this many.
    per_point = report.pruning.after_rule3

    show(
        ExperimentResult(
            name="Engine micro: build_schedule invocations (GEMM chain, full tune)",
            headers=["where", "builds"],
            rows=[
                ["templates (pricing)", counts["templates"]],
                ["lazy schedules (returned best)", counts["lazy"]],
                ["total (template pricing)", builds],
                ["distinct measured candidates (no build)", measured],
                ["distinct schedules requested", len(touched)],
                ["model estimates (no build)", report.search.num_estimates],
                ["Rule-3 points (one build each if built eagerly)", per_point],
            ],
        )
    )

    assert report.best_time > 0
    assert measured > 0
    # The acceptance bar: the returned best is the only schedule built
    # outside pricing.
    assert counts["lazy"] == 1
    assert touched == {report.best_candidate.key}
    assert builds < per_point
