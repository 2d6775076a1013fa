"""Tests for the Session layer: lazy resource ownership, config plumbing,
behavioral parity with hand-wired tuners, and the config-only signatures
of every entry point."""

import warnings

import pytest

from conftest import QUICK
from repro.cache.batch import BatchTuner
from repro.cache.cache import ScheduleCache
from repro.config import SessionConfig
from repro.frontend.executor import compile_model
from repro.frontend.models import bert_encoder
from repro.gpu.specs import A100, by_name
from repro.ir.chain import gemm_chain
from repro.search.tuner import MCFuserTuner
from repro.serving.service import CompileService
from repro.session import Session

SESSION_QUICK = QUICK.evolve(max_rounds=3, min_rounds=2)


def quick_config(**extra):
    return SESSION_QUICK.evolve(cache_enabled=False, **extra)


BERT_SMALL = bert_encoder("Bert-Small", 128)


@pytest.fixture
def chain():
    return gemm_chain(batch=1, m=128, n=64, k=32, h=32, name="G1")


class TestConstruction:
    def test_default_config(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEARCH_SEED", raising=False)
        session = Session()
        assert session.config == SessionConfig.default()
        assert session.gpu.name == by_name("a100").name

    def test_env_reaches_default_session(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEARCH_SEED", "7")
        assert Session().config.search.seed == 7

    def test_rejects_non_config(self):
        with pytest.raises(ValueError, match="SessionConfig"):
            Session(config={"seed": 3})

    def test_gpu_resolved_from_config(self):
        session = Session(SessionConfig.make(gpu="rtx3080", cache_enabled=False))
        assert session.gpu.name == by_name("rtx3080").name

    def test_explicit_gpu_wins(self):
        session = Session(SessionConfig.make(gpu="rtx3080"), gpu=A100)
        assert session.gpu is A100


class TestResourceOwnership:
    def test_cache_none_when_disabled(self):
        assert Session(quick_config()).cache is None

    def test_cache_materialized_once(self, tmp_path):
        session = Session(SESSION_QUICK.evolve(cache_dir=str(tmp_path)))
        cache = session.cache
        assert isinstance(cache, ScheduleCache)
        assert session.cache is cache  # owned singleton

    def test_cost_model_none_when_unguided(self):
        assert Session(quick_config()).cost_model is None

    def test_cost_model_materialized_when_guided(self, tmp_path):
        session = Session(
            SESSION_QUICK.evolve(cache_dir=str(tmp_path), measure_topk=1)
        )
        model = session.cost_model
        assert model is not None
        assert session.cost_model is model

    def test_metrics_singleton(self):
        session = Session(quick_config())
        assert session.metrics is session.metrics

    def test_tuner_shares_session_resources(self, tmp_path):
        session = Session(SESSION_QUICK.evolve(cache_dir=str(tmp_path)))
        tuner = session.tuner()
        assert tuner.cache is session.cache
        assert tuner.config == session.config

    def test_service_wired_to_session(self, tmp_path):
        session = Session(
            SESSION_QUICK.evolve(cache_dir=str(tmp_path), serve_workers=2)
        )
        try:
            service = session.service
            assert session.service is service
        finally:
            session.close()

    def test_close_idempotent(self):
        session = Session(quick_config())
        session.close()
        session.close()

    def test_context_manager_closes(self, tmp_path, chain):
        with Session(
            SESSION_QUICK.evolve(cache_dir=str(tmp_path), serve_workers=2)
        ) as session:
            assert session.service is not None
        # service shut down; a fresh access restarts it
        assert session._service is None


class TestWork:
    def test_tune_matches_hand_wired_tuner(self, chain):
        cfg = quick_config()
        via_session = Session(cfg).tune(chain)
        direct = MCFuserTuner(A100, config=cfg).tune(chain)
        assert via_session.best_time == direct.best_time
        assert (
            via_session.best_candidate.describe() == direct.best_candidate.describe()
        )

    def test_tune_all(self, tmp_path):
        chains = [
            gemm_chain(batch=1, m=128, n=64, k=32, h=32, name="Ga"),
            gemm_chain(batch=1, m=64, n=64, k=32, h=32, name="Gb"),
        ]
        session = Session(SESSION_QUICK.evolve(cache_dir=str(tmp_path)))
        result = session.tune_all(chains, max_workers=2)
        assert len(result.reports) == len(chains)
        assert result.unique + result.duplicates == len(chains)

    def test_compile_model(self, tmp_path):
        session = Session(SESSION_QUICK.evolve(cache_dir=str(tmp_path)))
        result = session.compile(bert_encoder("Bert-Small", 128), strategy="relay")
        assert result.time > 0

    def test_trace_config_enables_tracing(self, tmp_path):
        from repro.obs import disable_tracing, get_tracer

        try:
            session = Session(
                SESSION_QUICK.evolve(cache_dir=str(tmp_path), trace=True)
            )
            assert session.tracer is get_tracer()
            assert session.tracer.enabled
        finally:
            disable_tracing()


class TestDeprecationShims:
    """The keyword shims are gone: every entry point takes its knobs from
    ``config=`` only, rejects the old keywords, and the config path never
    warns."""

    def test_tuner_config_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            MCFuserTuner(A100, config=quick_config())

    def test_service_config_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = CompileService(A100, config=quick_config())
        service.close()

    def test_compile_model_config_path_is_silent(self):
        graph = bert_encoder("Bert-Small", 128)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compile_model(graph, A100, "relay", config=quick_config())

    @pytest.mark.parametrize(
        "call",
        [
            lambda: MCFuserTuner(A100, seed=3),
            lambda: MCFuserTuner(A100, population_size=64),
            lambda: BatchTuner(A100, seed=3, cache=ScheduleCache(path=None)),
            lambda: BatchTuner(A100, max_rounds=2),
            lambda: CompileService(A100, workers=2),
            lambda: CompileService(A100, seed=3),
            lambda: compile_model(BERT_SMALL, A100, "relay", seed=0),
            lambda: compile_model(BERT_SMALL, A100, "relay", search_strategy="random"),
        ],
        ids=[
            "tuner-seed", "tuner-budget", "batch-seed", "batch-budget",
            "service-workers", "service-seed", "compile-seed", "compile-strategy",
        ],
    )
    def test_old_keywords_raise_type_error(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call()
