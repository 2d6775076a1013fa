"""Learned cost model: analytic prior + gradient-boosted residual.

MCFuser's analytical model (§IV-A) ranks candidates well enough to guide
the search, but every surviving candidate is still hardware-measured.
This module closes the loop the way Ansor does — learn from measurements —
while keeping the paper's analytic model as the *prior* (Blockbuster's
layering: an analytical block-level model refined empirically): the GBT
regresses the **log-space residual**

    r = log(t_measured) - log(t_analytic)

so an unfitted or sample-starved model degrades gracefully to the pure
analytic ranking (residual zero), and the learner only has to explain what
the prior gets wrong (tile-shape efficiency, coalescing, wave
quantization — exactly the terms eq. 2-5 ignores).

Two pieces:

* :class:`MeasurementDataset` — an append-only JSONL store of
  ``(features, analytic estimate, measured time)`` records in the cache
  directory. Every tune that runs with a cost model attached logs its
  measurements here, so the model *compounds* across runs, processes, and
  :class:`~repro.serving.service.CompileService` replicas. Corrupted lines
  are skipped on load (mirroring :mod:`repro.cache.store`'s degrade-never-
  break policy), and records written under a different
  :data:`~repro.search.features.FEATURE_VERSION` are ignored rather than
  misinterpreted.
* :class:`LearnedCostModel` — wraps the pure-numpy
  :class:`~repro.baselines.gbt.GradientBoostedTrees`. Fits are
  deterministic for a given (seed, dataset) pair; each fit self-reports a
  pairwise ranking accuracy measured on a seeded holdout split (a probe
  model is trained on the rest), because ranking — not regression — is
  what the top-k search consumes. Snapshots save/load as JSON.

The consumer is :class:`~repro.search.engine.loop.SearchLoop`: in top-k
mode it re-ranks every unmeasured proposal with
:meth:`LearnedCostModel.predict` and measures only the best ``k``,
refitting once per round from the accumulated dataset.
"""

from __future__ import annotations

import json
import math
import os
import threading

import numpy as np

from repro.baselines.gbt import GradientBoostedTrees
from repro.search.features import FEATURE_NAMES, FEATURE_VERSION
from repro.utils import atomic_write, rng_for

__all__ = [
    "DATASET_FILENAME",
    "MODEL_FILENAME",
    "MODEL_SCHEMA",
    "MeasurementDataset",
    "LearnedCostModel",
    "pairwise_ranking_accuracy",
    "default_dataset_path",
    "default_model_path",
    "open_cost_model",
]

#: File names inside the cache directory (next to the ``schedules/`` store).
DATASET_FILENAME = "measurements.jsonl"
MODEL_FILENAME = "cost_model.json"

#: On-disk model-snapshot schema; snapshots from another schema are ignored.
MODEL_SCHEMA = 1

#: Floor for log-space targets — measured/analytic times are simulated
#: seconds and always far above this; the floor only guards degenerate
#: inputs from ever producing ``-inf``.
_TIME_FLOOR = 1e-12

#: Residual predictions are clipped to this magnitude before ``exp`` so a
#: wild extrapolation can never overflow into inf/0 and scramble a ranking.
_RESIDUAL_CLIP = 20.0


def default_dataset_path(directory: str | None = None) -> str:
    """The measurement dataset's path inside ``directory`` (default cache dir)."""
    if directory is None:
        from repro.cache.cache import default_cache_dir

        directory = default_cache_dir()
    return os.path.join(directory, DATASET_FILENAME)


def default_model_path(directory: str | None = None) -> str:
    """The model snapshot's path inside ``directory`` (default cache dir)."""
    if directory is None:
        from repro.cache.cache import default_cache_dir

        directory = default_cache_dir()
    return os.path.join(directory, MODEL_FILENAME)


def pairwise_ranking_accuracy(
    predicted: np.ndarray,
    actual: np.ndarray,
    max_pairs: int = 4096,
    rng: np.random.Generator | None = None,
) -> float:
    """Fraction of candidate pairs the prediction orders correctly.

    This is the metric the top-k search actually depends on: absolute
    regression error is irrelevant as long as better candidates score
    lower. Ties in ``actual`` are skipped; when the number of pairs exceeds
    ``max_pairs`` a seeded random sample is scored instead (deterministic
    given ``rng``). Returns ``nan`` when no comparable pair exists.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    n = len(actual)
    if n < 2:
        return float("nan")
    if n * (n - 1) // 2 <= max_pairs:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = rng if rng is not None else np.random.default_rng(0)
        ii = rng.integers(0, n, size=max_pairs)
        jj = rng.integers(0, n, size=max_pairs)
    keep = actual[ii] != actual[jj]
    ii, jj = ii[keep], jj[keep]
    if len(ii) == 0:
        return float("nan")
    agree = np.sign(predicted[ii] - predicted[jj]) == np.sign(actual[ii] - actual[jj])
    return float(np.mean(agree))


class MeasurementDataset:
    """Append-only JSONL store of (features, analytic, measured) records.

    Args:
        path: JSONL file path, or ``None`` for a memory-only dataset.
        capacity: Maximum records kept in memory (and used for fitting);
            the oldest are dropped first. The file itself is append-only.

    Thread-safe; loading skips corrupted or version-mismatched lines and
    counts them in :attr:`corrupt_lines` (the tuning path must degrade,
    never break — same policy as :class:`repro.cache.store.PersistentStore`).
    An unreadable file reads as empty; an unwritable one degrades the
    dataset to memory-only.
    """

    def __init__(self, path: str | os.PathLike | None = None, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = os.fspath(path) if path is not None else None
        self.capacity = capacity
        self._lock = threading.RLock()
        self._records: list[dict] = []
        self.corrupt_lines = 0
        if self.path is not None:
            self._load()

    @staticmethod
    def _validate(record: object) -> dict | None:
        """One parsed JSONL line -> record dict, or ``None`` if malformed."""
        if not isinstance(record, dict) or record.get("v") != FEATURE_VERSION:
            return None
        features = record.get("features")
        if not isinstance(features, list) or len(features) != len(FEATURE_NAMES):
            return None
        try:
            features = [float(f) for f in features]
            analytic = float(record["analytic"])
            measured = float(record["measured"])
        except (KeyError, TypeError, ValueError):
            return None
        if not all(math.isfinite(f) for f in features):
            return None
        if not (math.isfinite(analytic) and analytic > 0):
            return None
        if not (math.isfinite(measured) and measured > 0):
            return None
        return {
            "v": FEATURE_VERSION,
            "features": features,
            "analytic": analytic,
            "measured": measured,
            "workload": str(record.get("workload", "")),
            "gpu": str(record.get("gpu", "")),
        }

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError:
                self.corrupt_lines += 1
                continue
            record = self._validate(parsed)
            if record is None:
                self.corrupt_lines += 1
                continue
            self._records.append(record)
        del self._records[: -self.capacity]

    def append(
        self,
        features,
        analytic: float,
        measured: float,
        workload: str = "",
        gpu: str = "",
    ) -> bool:
        """Record one measurement; returns whether it was accepted.

        Non-finite or non-positive times are rejected (launch failures are
        the search loop's blacklist's job, not the regressor's), as are
        feature vectors of the wrong arity.
        """
        record = self._validate(
            {
                "v": FEATURE_VERSION,
                "features": list(np.asarray(features, dtype=np.float64).tolist()),
                "analytic": analytic,
                "measured": measured,
                "workload": workload,
                "gpu": gpu,
            }
        )
        if record is None:
            return False
        with self._lock:
            self._records.append(record)
            del self._records[: -self.capacity]
            if self.path is not None:
                try:
                    os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                    with open(self.path, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(record, sort_keys=True) + "\n")
                except OSError:
                    self.path = None  # unwritable: degrade to memory-only
        return True

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(x, analytic, measured)`` training arrays over all records."""
        with self._lock:
            records = list(self._records)
        if not records:
            f = len(FEATURE_NAMES)
            return np.empty((0, f)), np.empty(0), np.empty(0)
        x = np.array([r["features"] for r in records], dtype=np.float64)
        analytic = np.array([r["analytic"] for r in records], dtype=np.float64)
        measured = np.array([r["measured"] for r in records], dtype=np.float64)
        return x, analytic, measured

    def records(self) -> list[dict]:
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.corrupt_lines = 0
            if self.path is not None:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class LearnedCostModel:
    """Analytic prior blended with a learned log-space GBT residual.

    Args:
        dataset: The :class:`MeasurementDataset` backing fits (a memory-only
            one is created when omitted).
        seed: Drives the holdout split of the self-reported ranking
            accuracy. Fits are deterministic for a (seed, dataset) pair.
        min_samples: Below this many records the model refuses to fit and
            :attr:`ready` stays false — the search loop then falls back to
            measure-everything.
        n_trees/learning_rate/max_depth: GBT hyper-parameters (modest by
            default: the model refits once per search round).
        holdout: Fraction of the dataset held out for the accuracy
            self-report.

    Thread-safe: one model instance may be shared by every worker of a
    :class:`~repro.serving.service.CompileService`.
    """

    def __init__(
        self,
        dataset: MeasurementDataset | None = None,
        seed: int = 0,
        min_samples: int = 32,
        n_trees: int = 24,
        learning_rate: float = 0.15,
        max_depth: int = 3,
        holdout: float = 0.25,
    ) -> None:
        if min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {min_samples}")
        if not 0.0 < holdout < 1.0:
            raise ValueError(f"holdout must be in (0, 1), got {holdout}")
        self.dataset = dataset if dataset is not None else MeasurementDataset(None)
        self.seed = seed
        self.min_samples = min_samples
        self.holdout = holdout
        self._gbt_params = dict(
            n_trees=n_trees, learning_rate=learning_rate, max_depth=max_depth
        )
        self._gbt = GradientBoostedTrees(**self._gbt_params)
        self._lock = threading.RLock()
        self._fitted_on = 0
        #: Pairwise ranking accuracy self-reported by the latest fit
        #: (``None`` before any fit; may be ``nan`` on tiny datasets).
        self.accuracy: float | None = None
        #: Number of (re)fits performed by this instance.
        self.fits = 0

    # -- state ---------------------------------------------------------------

    @property
    def ready(self) -> bool:
        """Whether predictions carry learned information (fit succeeded)."""
        with self._lock:
            return self._gbt.is_fitted

    @property
    def samples(self) -> int:
        """Records the current parameters were fitted on."""
        with self._lock:
            return self._fitted_on

    # -- data ----------------------------------------------------------------

    def observe(
        self,
        features,
        analytic: float,
        measured: float,
        workload: str = "",
        gpu: str = "",
    ) -> bool:
        """Log one (features, analytic, measured) sample into the dataset."""
        return self.dataset.append(
            features, analytic, measured, workload=workload, gpu=gpu
        )

    @staticmethod
    def _residuals(analytic: np.ndarray, measured: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(measured, _TIME_FLOOR)) - np.log(
            np.maximum(analytic, _TIME_FLOOR)
        )

    # -- fitting --------------------------------------------------------------

    def fit(self, force: bool = False) -> bool:
        """(Re)fit from the dataset; returns whether a fit happened.

        A no-op (returning ``False``) while the dataset holds fewer than
        ``min_samples`` records, or — unless ``force`` — when no new record
        arrived since the previous fit. Each fit first trains a probe model
        on a seeded train split to self-report pairwise ranking accuracy on
        the held-out rest, then fits the serving model on everything.
        """
        with self._lock:
            x, analytic, measured = self.dataset.arrays()
            n = len(measured)
            if n < self.min_samples:
                return False
            if not force and n == self._fitted_on:
                return False
            target = self._residuals(analytic, measured)

            # Self-report: probe fit on the train split, pairwise accuracy
            # on the holdout. Deterministic via the seeded permutation.
            rng = rng_for("cost-model", self.seed, n)
            n_hold = max(1, int(n * self.holdout))
            if n - n_hold >= max(2, self.min_samples // 2):
                perm = rng.permutation(n)
                hold, train = perm[:n_hold], perm[n_hold:]
                probe = GradientBoostedTrees(**self._gbt_params)
                probe.fit(x[train], target[train])
                resid = np.clip(probe.predict(x[hold]), -_RESIDUAL_CLIP, _RESIDUAL_CLIP)
                pred = np.log(np.maximum(analytic[hold], _TIME_FLOOR)) + resid
                self.accuracy = pairwise_ranking_accuracy(
                    pred, measured[hold], rng=rng
                )
            else:  # too small to split honestly: report training-set accuracy
                probe = GradientBoostedTrees(**self._gbt_params).fit(x, target)
                resid = np.clip(probe.predict(x), -_RESIDUAL_CLIP, _RESIDUAL_CLIP)
                pred = np.log(np.maximum(analytic, _TIME_FLOOR)) + resid
                self.accuracy = pairwise_ranking_accuracy(pred, measured, rng=rng)

            self._gbt = GradientBoostedTrees(**self._gbt_params)
            self._gbt.fit(x, target)
            self._fitted_on = n
            self.fits += 1
            return True

    # -- prediction -----------------------------------------------------------

    def predict(self, x: np.ndarray, analytic: np.ndarray) -> np.ndarray:
        """Predicted times (seconds) for feature rows ``x`` with analytic
        priors ``analytic``; the pure prior when the model is not fitted."""
        analytic = np.asarray(analytic, dtype=np.float64)
        with self._lock:
            if not self._gbt.is_fitted:
                return analytic.copy()
            resid = self._gbt.predict(np.asarray(x, dtype=np.float64))
        return analytic * np.exp(np.clip(resid, -_RESIDUAL_CLIP, _RESIDUAL_CLIP))

    def rank(self, x: np.ndarray, analytic: np.ndarray) -> np.ndarray:
        """Indices ordering the rows best (fastest predicted) first.

        The sort is stable, so equal predictions preserve the caller's
        (analytic-prior) order — determinism survives ties.
        """
        return np.argsort(self.predict(x, analytic), kind="stable")

    # -- persistence ------------------------------------------------------------

    def save(self, path: str | os.PathLike) -> str:
        """Persist a fitted model snapshot atomically; returns the path."""
        with self._lock:
            if not self._gbt.is_fitted:
                raise RuntimeError("cannot save an unfitted cost model")
            doc = {
                "schema": MODEL_SCHEMA,
                "feature_version": FEATURE_VERSION,
                "feature_names": list(FEATURE_NAMES),
                "seed": self.seed,
                "min_samples": self.min_samples,
                "holdout": self.holdout,
                "samples": self._fitted_on,
                "accuracy": self.accuracy,
                "fits": self.fits,
                "gbt": self._gbt.to_json(),
            }
        path = os.fspath(path)
        atomic_write(path, json.dumps(doc, indent=1, sort_keys=True))
        return path

    @classmethod
    def load(
        cls, path: str | os.PathLike, dataset: MeasurementDataset | None = None
    ) -> "LearnedCostModel | None":
        """Restore a snapshot; ``None`` when absent, corrupt, or written
        under a different schema/feature version (never misinterpreted)."""
        try:
            with open(os.fspath(path), encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != MODEL_SCHEMA:
            return None
        if doc.get("feature_version") != FEATURE_VERSION:
            return None
        try:
            gbt = GradientBoostedTrees.from_json(doc["gbt"])
            model = cls(
                dataset=dataset,
                seed=int(doc["seed"]),
                min_samples=int(doc["min_samples"]),
                n_trees=gbt.n_trees,
                learning_rate=gbt.learning_rate,
                max_depth=gbt.max_depth,
                holdout=float(doc.get("holdout", 0.25)),
            )
            model._gbt = gbt
            model._fitted_on = int(doc.get("samples", 0))
            accuracy = doc.get("accuracy")
            model.accuracy = None if accuracy is None else float(accuracy)
            model.fits = int(doc.get("fits", 0))
        except (KeyError, TypeError, ValueError):
            return None
        return model


def open_cost_model(directory: str, seed: int) -> LearnedCostModel:
    """The persistent model + dataset pair stored in ``directory``.

    Restores the model snapshot when a readable one exists (learning
    accumulates across processes), else starts a fresh model seeded with
    ``seed``; either way it is backed by the directory's measurement
    dataset.
    """
    dataset = MeasurementDataset(default_dataset_path(directory))
    model = LearnedCostModel.load(default_model_path(directory), dataset=dataset)
    if model is None:
        model = LearnedCostModel(dataset, seed=seed)
    return model
