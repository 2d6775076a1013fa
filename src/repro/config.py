"""SessionConfig: one typed, serializable configuration object.

Seven PRs of feature growth each added a few keyword arguments that had to
be hand-threaded through five layers (tuner → batch tuner → service →
``compile_model`` → CLI), with the validation copy-pasted at every hop.
This module is the single source of truth for every tunable knob:

* **Typed & frozen** — :class:`SessionConfig` is an immutable dataclass of
  nested sub-configs (:class:`SearchConfig`, :class:`ExecConfig`,
  :class:`CacheConfig`, :class:`ServeConfig`, :class:`ObsConfig`). Invalid
  values raise :class:`ValueError` at *construction*, not deep inside a
  tune; downstream layers assert they received an already-validated config
  instead of re-checking.
* **Serializable** — :meth:`SessionConfig.to_json` /
  :meth:`SessionConfig.from_json` round-trip losslessly, and ``from_json``
  tolerates unknown keys (forward compatibility: a config written by a
  newer release still loads). This is what a multi-process serving tier
  ships to worker processes and uses to warm-start replicas.
* **Env-overridable** — every leaf field has a ``REPRO_*`` environment
  variable (:func:`apply_env`; e.g. ``REPRO_SEARCH_SEED=3``,
  ``REPRO_EXEC_BACKEND=compiled``, and the pre-existing
  ``REPRO_CACHE_DIR``). :meth:`SessionConfig.default` is the
  env-applied default config.
* **Cache-key stable** — :attr:`SessionConfig.variant_key` reproduces the
  historical :func:`~repro.cache.signature.variant_key` strings exactly
  (``"mcfuser"``, ``"mcfuser+random"``, ``"mcfuser+topk1"``, ...), so no
  persistent-store entry written before this layer existed is orphaned;
  :meth:`SessionConfig.content_hash` is a stable digest of the whole
  config for replica hand-off and snapshot naming.

Every entry point (``MCFuserTuner``, ``BatchTuner``, ``CompileService``,
``compile_model``, the MCFuser baselines, the serve-load generator) takes
its knobs as ``config=`` only; live resources (GPU spec, caches, cost
model, telemetry) stay separate arguments. Build a config with
:meth:`SessionConfig.make` from flat names, or derive one from an existing
config with :meth:`SessionConfig.evolve`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.cache.signature import DEFAULT_DYNAMIC_LOOPS, variant_key
from repro.codegen.interpreter import EXEC_BACKENDS

__all__ = [
    "CONFIG_VERSION",
    "VERIFY_MODES",
    "DYNAMIC_MODES",
    "VARIANTS",
    "SearchConfig",
    "ExecConfig",
    "CacheConfig",
    "ServeConfig",
    "ObsConfig",
    "SessionConfig",
    "FLAT_FIELDS",
    "apply_env",
    "env_var_for",
    "field_paths",
    "describe_fields",
]

#: Bumped when the config schema changes shape incompatibly. Serialized
#: configs carry it; :meth:`SessionConfig.from_dict` ignores unknown keys,
#: so additive growth does not need a bump.
CONFIG_VERSION = 1

#: Tuner variants (full system vs the restricted MCFuser-Chimera baseline).
VARIANTS = ("mcfuser", "chimera")

#: Numeric verification modes: ``"off"`` (no checking), ``"best"`` (execute
#: the winning schedule once against the unfused reference), ``"all"``
#: (execute every hardware-measured candidate — numerically wrong programs
#: count as launch failures and are blacklisted).
VERIFY_MODES = ("off", "best", "all")

#: Dynamic-shape handling: ``"off"`` keys the cache by exact extents;
#: ``"buckets"`` tunes once per power-of-two sequence-length bucket (at the
#: bucket ceiling) and replays the schedule — tail tiles masked — on every
#: in-bucket length.
DYNAMIC_MODES = ("off", "buckets")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class SearchConfig:
    """Everything that shapes one tuning run (§IV / Algorithm 1).

    Attributes:
        variant: ``"mcfuser"`` (full system) or ``"chimera"`` (restricted
            space + data-movement objective).
        strategy: Registered search-strategy name (``"evolutionary"``,
            ``"random"``, ``"exhaustive"``, ``"annealing"``, or a custom
            registration). Cached schedules are keyed per strategy.
        population_size/top_n/epsilon/max_rounds/min_rounds: Algorithm-1
            parameters (paper uses ``n = 8``).
        seed: Controls search randomness and simulator jitter.
        workers: Measurement thread-pool width for the per-round top-n
            batch (deterministic for any width).
        cost_model: Attach the persistent learned cost model (the
            :class:`~repro.search.cost_model.LearnedCostModel` living next
            to the schedule cache) to every tune.
        measure_topk: With a cost model, hardware-measure only the model's
            predicted-best ``k`` candidates per round (0 disables; guided
            entries cache under a ``+topk{k}`` variant key).
    """

    variant: str = "mcfuser"
    strategy: str = "evolutionary"
    population_size: int = 512
    top_n: int = 8
    epsilon: float = 0.01
    max_rounds: int = 16
    min_rounds: int = 5
    seed: int = 0
    workers: int = 1
    cost_model: bool = False
    measure_topk: int = 0

    def __post_init__(self) -> None:
        _require(
            self.variant in VARIANTS,
            f"unknown tuner variant {self.variant!r}; pick from {VARIANTS}",
        )
        from repro.search.engine.strategy import strategy_names

        _require(
            self.strategy in strategy_names(),
            f"unknown search strategy {self.strategy!r}; "
            f"pick from {tuple(strategy_names())}",
        )
        _require(
            self.population_size >= 1,
            f"population_size must be >= 1, got {self.population_size}",
        )
        _require(self.top_n >= 1, f"top_n must be >= 1, got {self.top_n}")
        _require(self.epsilon >= 0, f"epsilon must be >= 0, got {self.epsilon}")
        _require(self.max_rounds >= 1, f"max_rounds must be >= 1, got {self.max_rounds}")
        _require(self.min_rounds >= 0, f"min_rounds must be >= 0, got {self.min_rounds}")
        _require(self.workers >= 1, f"workers must be >= 1, got {self.workers}")
        _require(
            self.measure_topk >= 0,
            f"measure_topk must be >= 0, got {self.measure_topk}",
        )


@dataclass(frozen=True)
class ExecConfig:
    """How tuned schedules are executed and checked.

    Attributes:
        backend: Numeric execution engine — ``"auto"`` (compiled when
            available and worthwhile, then vectorized, then scalar),
            ``"compiled"``, ``"vectorized"``, or ``"scalar"``.
        verify: :data:`VERIFY_MODES` member.
        dynamic: :data:`DYNAMIC_MODES` member.
        dynamic_loops: Loop names treated as dynamic under bucketing
            (default: the sequence-length dims ``("m", "n")``).
    """

    backend: str = "auto"
    verify: str = "off"
    dynamic: str = "off"
    dynamic_loops: tuple[str, ...] = DEFAULT_DYNAMIC_LOOPS

    def __post_init__(self) -> None:
        _require(
            self.backend in EXEC_BACKENDS,
            f"unknown exec backend {self.backend!r}; pick from {EXEC_BACKENDS}",
        )
        _require(
            self.verify in VERIFY_MODES,
            f"unknown verify mode {self.verify!r}; pick from {VERIFY_MODES}",
        )
        _require(
            self.dynamic in DYNAMIC_MODES,
            f"unknown dynamic mode {self.dynamic!r}; pick from {DYNAMIC_MODES}",
        )
        object.__setattr__(self, "dynamic_loops", tuple(self.dynamic_loops))
        _require(
            all(isinstance(l, str) and l for l in self.dynamic_loops),
            f"dynamic_loops must be non-empty loop names, got {self.dynamic_loops!r}",
        )


@dataclass(frozen=True)
class CacheConfig:
    """The persistent schedule cache (and cost-model home directory).

    Attributes:
        enabled: Consult/fill the persistent schedule cache.
        dir: Cache directory; ``None`` means the default
            (``$REPRO_CACHE_DIR`` or ``~/.cache/mcfuser-repro``).
    """

    enabled: bool = True
    dir: str | None = None

    def __post_init__(self) -> None:
        _require(
            self.dir is None or (isinstance(self.dir, str) and self.dir),
            f"cache dir must be None or a non-empty path, got {self.dir!r}",
        )

    def resolved_dir(self) -> str:
        """The concrete cache directory this config points at."""
        from repro.cache.cache import default_cache_dir

        return self.dir or default_cache_dir()


@dataclass(frozen=True)
class ServeConfig:
    """The compile service (admission queue + tune worker pool).

    Attributes:
        workers: Tune worker-thread count.
        queue_limit: Bounded tune-queue depth; submits beyond it load-shed.
    """

    workers: int = 4
    queue_limit: int = 256

    def __post_init__(self) -> None:
        _require(self.workers >= 1, f"workers must be >= 1, got {self.workers}")
        _require(
            self.queue_limit >= 1,
            f"queue_limit must be >= 1, got {self.queue_limit}",
        )


@dataclass(frozen=True)
class ObsConfig:
    """Observability: span tracing and metrics export.

    Attributes:
        trace: Enable the process-global span tracer for the session.
    """

    trace: bool = False


#: ``section name -> sub-config type`` — the schema's table of contents.
_SECTIONS: dict[str, type] = {
    "search": SearchConfig,
    "exec": ExecConfig,
    "cache": CacheConfig,
    "serve": ServeConfig,
    "obs": ObsConfig,
}


@dataclass(frozen=True)
class SessionConfig:
    """Every tunable knob of a tuning/serving session, in one object.

    ``gpu`` is the *name* of a registered GPU spec (``"a100"``,
    ``"rtx3080"``) so the config stays serializable; layers that accept a
    live :class:`~repro.gpu.specs.GPUSpec` object (for custom hardware
    descriptions) take it separately and use the config for knobs only.
    """

    gpu: str = "a100"
    search: SearchConfig = field(default_factory=SearchConfig)
    exec: ExecConfig = field(default_factory=ExecConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.gpu, str) and bool(self.gpu),
            f"gpu must be a registered GPU name, got {self.gpu!r}",
        )
        for name, cls in _SECTIONS.items():
            value = getattr(self, name)
            if isinstance(value, Mapping):  # convenience: dicts coerce
                object.__setattr__(self, name, cls(**value))
            elif not isinstance(value, cls):
                raise ValueError(
                    f"config section {name!r} must be a {cls.__name__}, "
                    f"got {type(value).__name__}"
                )

    # -- construction ---------------------------------------------------------

    @classmethod
    def default(cls, environ: Mapping[str, str] | None = None) -> "SessionConfig":
        """The default config with ``REPRO_*`` environment overrides applied."""
        return apply_env(cls(), environ)

    @classmethod
    def make(cls, base: "SessionConfig | None" = None, **flat: Any) -> "SessionConfig":
        """Build a config from *flat* keyword names.

        ``SessionConfig.make(seed=3, exec_backend="compiled")`` routes each
        flat name to its nested field via :data:`FLAT_FIELDS`. Unknown
        names raise a :class:`ValueError` naming the valid set.
        """
        cfg = base if base is not None else cls()
        return cfg.evolve(**flat)

    def evolve(self, **flat: Any) -> "SessionConfig":
        """A copy with flat-named overrides applied (see :data:`FLAT_FIELDS`)."""
        updates: dict[str, dict[str, Any]] = {}
        top: dict[str, Any] = {}
        for name, value in flat.items():
            if value is None and name != "cache_dir":
                # None means "not set" for every knob except cache.dir,
                # where None is a real value (the default directory).
                continue
            path = FLAT_FIELDS.get(name)
            if path is None:
                raise ValueError(
                    f"unknown config field {name!r}; valid flat names: "
                    f"{', '.join(sorted(FLAT_FIELDS))}"
                )
            section, _, leaf = path.partition(".")
            if not leaf:
                top[section] = value
            else:
                updates.setdefault(section, {})[leaf] = value
        replacements: dict[str, Any] = dict(top)
        for section, kv in updates.items():
            replacements[section] = dataclasses.replace(getattr(self, section), **kv)
        return dataclasses.replace(self, **replacements)

    def update(self, path: str, value: Any) -> "SessionConfig":
        """A copy with one dotted-path field replaced (``"search.seed"``)."""
        section, _, leaf = path.partition(".")
        if not leaf:
            if section not in ("gpu",):
                raise ValueError(f"unknown config path {path!r}")
            return dataclasses.replace(self, gpu=value)
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section {section!r} in path {path!r}")
        sub = getattr(self, section)
        if leaf not in {f.name for f in fields(sub)}:
            raise ValueError(f"unknown config field {leaf!r} in section {section!r}")
        return dataclasses.replace(
            self, **{section: dataclasses.replace(sub, **{leaf: value})}
        )

    def get(self, path: str) -> Any:
        """Read one dotted-path field (``"exec.backend"``)."""
        obj: Any = self
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-able nested dict (tuples rendered as lists)."""
        payload: dict[str, Any] = {"version": CONFIG_VERSION, "gpu": self.gpu}
        for name in _SECTIONS:
            sub = getattr(self, name)
            payload[name] = {
                f.name: (
                    list(v) if isinstance(v := getattr(sub, f.name), tuple) else v
                )
                for f in fields(sub)
            }
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionConfig":
        """Rebuild from :meth:`to_dict` output.

        Unknown keys — top-level or inside any section — are ignored, so a
        config serialized by a newer release still loads here (forward
        compatibility); missing keys take their defaults. Invalid *values*
        still raise at construction.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"config payload must be a JSON object, got {type(payload).__name__}"
            )
        kwargs: dict[str, Any] = {}
        if "gpu" in payload:
            kwargs["gpu"] = payload["gpu"]
        for name, sub_cls in _SECTIONS.items():
            raw = payload.get(name)
            if raw is None:
                continue
            if not isinstance(raw, Mapping):
                raise ValueError(f"config section {name!r} must be a JSON object")
            known = {f.name: f for f in fields(sub_cls)}
            sub_kwargs: dict[str, Any] = {}
            for key, value in raw.items():
                spec = known.get(key)
                if spec is None:
                    continue  # unknown key: forward compatibility
                if isinstance(value, list):
                    value = tuple(value)
                sub_kwargs[key] = value
            kwargs[name] = sub_cls(**sub_kwargs)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SessionConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid config JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str) -> "SessionConfig":
        """Read a config file written by :meth:`save` (or ``config dump``)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")
        return path

    # -- identity -------------------------------------------------------------

    @property
    def variant_key(self) -> str:
        """The cache-key variant string this config tunes under.

        Bit-identical to the historical
        :func:`~repro.cache.signature.variant_key` composition
        (``"mcfuser"``, ``"mcfuser+random"``, ``"mcfuser+topk1"``, ...),
        so cache entries written before :class:`SessionConfig` existed
        keep their exact keys.
        """
        return variant_key(
            self.search.variant, self.search.strategy, self.search.measure_topk
        )

    def content_hash(self) -> str:
        """Stable 32-char digest of the whole config (canonical JSON).

        Two processes holding equal configs compute equal hashes — the
        hand-off token a serving tier uses to confirm a worker process
        was warm-started with the intended configuration.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


# -- flat-name routing (SessionConfig.make/evolve, CLI flags) -------------------

#: ``flat name -> dotted config path``: the vocabulary
#: :meth:`SessionConfig.make`/:meth:`SessionConfig.evolve` and the CLI flag
#: table share. ``workers`` keeps its historical tuner meaning (measurement
#: pool width); the service pool is ``serve_workers``.
FLAT_FIELDS: dict[str, str] = {
    "gpu": "gpu",
    "variant": "search.variant",
    "strategy": "search.strategy",
    "population_size": "search.population_size",
    "top_n": "search.top_n",
    "epsilon": "search.epsilon",
    "max_rounds": "search.max_rounds",
    "min_rounds": "search.min_rounds",
    "seed": "search.seed",
    "workers": "search.workers",
    "cost_model": "search.cost_model",
    "measure_topk": "search.measure_topk",
    "exec_backend": "exec.backend",
    "verify": "exec.verify",
    "dynamic": "exec.dynamic",
    "dynamic_loops": "exec.dynamic_loops",
    "cache_enabled": "cache.enabled",
    "cache_dir": "cache.dir",
    "serve_workers": "serve.workers",
    "queue_limit": "serve.queue_limit",
    "trace": "obs.trace",
}

# -- environment overrides -----------------------------------------------------


def env_var_for(path: str) -> str:
    """The ``REPRO_*`` environment variable overriding one config path.

    ``"gpu"`` → ``REPRO_GPU``; ``"cache.dir"`` → ``REPRO_CACHE_DIR`` (the
    variable the cache layer has honored since PR 1); ``"search.seed"`` →
    ``REPRO_SEARCH_SEED``; and so on.
    """
    return "REPRO_" + path.replace(".", "_").upper()


_TRUE = frozenset(("1", "true", "yes", "on"))
_FALSE = frozenset(("0", "false", "no", "off"))


def _parse_env(raw: str, example: Any, var: str) -> Any:
    """Parse one environment string by the type of the field it overrides."""
    if isinstance(example, bool):
        lowered = raw.strip().lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ValueError(f"{var}={raw!r} is not a boolean (use 1/0/true/false)")
    if isinstance(example, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"{var}={raw!r} is not an integer") from exc
    if isinstance(example, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ValueError(f"{var}={raw!r} is not a number") from exc
    if isinstance(example, tuple):
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw


def field_paths() -> list[str]:
    """Every leaf config path, in schema order (``gpu``, ``search.variant``, ...)."""
    paths = ["gpu"]
    for name, cls in _SECTIONS.items():
        paths.extend(f"{name}.{f.name}" for f in fields(cls))
    return paths


def describe_fields() -> list[dict]:
    """Schema table: path, type, default, env var — for docs and parity tests."""
    defaults = SessionConfig()
    rows = []
    for path in field_paths():
        value = defaults.get(path)
        rows.append(
            {
                "path": path,
                "type": type(value).__name__ if value is not None else "str",
                "default": value,
                "env": env_var_for(path),
            }
        )
    return rows


def apply_env(
    config: SessionConfig, environ: Mapping[str, str] | None = None
) -> SessionConfig:
    """Apply ``REPRO_*`` environment overrides on top of ``config``.

    Environment wins over whatever the config holds (file or defaults);
    explicit CLI flags are applied *after* this, so the precedence is
    defaults < config file < environment < flags. Unset variables leave
    their fields untouched; malformed values raise :class:`ValueError`.
    """
    environ = os.environ if environ is None else environ
    out = config
    for path in field_paths():
        raw = environ.get(env_var_for(path))
        if raw is None:
            continue
        example = SessionConfig().get(path)
        if example is None:  # cache.dir: a string-typed optional
            example = ""
        out = out.update(path, _parse_env(raw, example, env_var_for(path)))
    return out
