"""Gradient-boosted regression trees, from scratch on NumPy.

Ansor ranks candidate programs with an XGBoost cost model trained online
on measured samples; no ML library is available offline, so this is a
small, exact reimplementation of the core algorithm: squared-loss gradient
boosting over depth-limited regression trees with greedy variance-gain
splits. It is intentionally modest (a few thousand samples, ~10 features)
— which matches Ansor's per-task training regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RegressionTree", "GradientBoostedTrees"]

#: Split thresholds are midpoints of these quantiles of a feature's values.
_CUTS = np.linspace(0.05, 0.95, 16)


def _quantiles(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(values, q)`` of sorted ``values`` at ``0 < q < 1``,
    bit for bit (numpy's "linear" method), without the ``np.unique`` call
    through which numpy 2.x's quantile imports ``numpy.ma``."""
    index = (len(values) - 1) * q
    below = np.floor(index)
    gamma = index - below
    lo = values[below.astype(np.intp)]
    hi = values[below.astype(np.intp) + 1]
    diff = hi - lo
    return np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma)


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        assert self.left is not None and self.right is not None
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "value": self.value,
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "_Node":
        if "left" not in data:
            return cls(value=float(data["value"]))
        return cls(
            feature=int(data["feature"]),
            threshold=float(data["threshold"]),
            value=float(data["value"]),
            left=cls.from_json(data["left"]),
            right=cls.from_json(data["right"]),
        )


class RegressionTree:
    """CART regression tree with greedy variance-reduction splits."""

    def __init__(self, max_depth: int = 3, min_samples: int = 4) -> None:
        self.max_depth = max_depth
        self.min_samples = min_samples
        self.root: _Node | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        self.root = self._build(x, y, depth=0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < self.min_samples or np.ptp(y) == 0.0:
            return node
        best_gain = 0.0
        base_sse = float(((y - y.mean()) ** 2).sum())
        best: tuple[int, float, np.ndarray] | None = None
        for f in range(x.shape[1]):
            # return_index keeps numpy 2.x's unique off its numpy.ma path.
            values = np.unique(x[:, f], return_index=True)[0]
            if len(values) < 2:
                continue
            # Candidate thresholds: midpoints of up to 16 quantile cuts.
            if len(values) > 16:
                values = _quantiles(values, _CUTS)
            for thr in (values[:-1] + values[1:]) / 2.0:
                mask = x[:, f] <= thr
                n_l = int(mask.sum())
                if n_l == 0 or n_l == len(y):
                    continue
                yl, yr = y[mask], y[~mask]
                sse = float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
                gain = base_sse - sse
                if gain > best_gain:
                    best_gain = gain
                    best = (f, float(thr), mask)
        if best is None:
            return node
        f, thr, mask = best
        node.feature, node.threshold = f, thr
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def predict(self, x: np.ndarray) -> np.ndarray:
        assert self.root is not None, "tree not fitted"
        out = np.empty(len(x), dtype=np.float64)
        for i, row in enumerate(x):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
                assert node is not None
            out[i] = node.value
        return out

    def to_json(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_json`)."""
        assert self.root is not None, "tree not fitted"
        return {
            "max_depth": self.max_depth,
            "min_samples": self.min_samples,
            "root": self.root.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RegressionTree":
        tree = cls(max_depth=int(data["max_depth"]), min_samples=int(data["min_samples"]))
        tree.root = _Node.from_json(data["root"])
        return tree


class GradientBoostedTrees:
    """Squared-loss gradient boosting (the XGBoost-lite cost model)."""

    def __init__(
        self,
        n_trees: int = 40,
        learning_rate: float = 0.15,
        max_depth: int = 3,
        min_samples: int = 4,
    ) -> None:
        self.n_trees = n_trees
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples = min_samples
        self.base: float = 0.0
        self.trees: list[RegressionTree] = []
        self._fitted = False

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("GBT.fit expects x:(n,f), y:(n,)")
        if len(y) == 0:
            raise ValueError("GBT.fit needs at least one sample")
        self.base = float(y.mean())
        self.trees = []
        self._fitted = True
        # Constant targets or sample-starved fits collapse to the prior
        # mean: boosting on them would only grow degenerate zero-gain
        # trees (or chase noise through tiny leaves).
        if len(y) < self.min_samples or np.ptp(y) == 0.0:
            return self
        residual = y - self.base
        for _ in range(self.n_trees):
            tree = RegressionTree(self.max_depth, self.min_samples).fit(x, residual)
            update = tree.predict(x)
            residual = residual - self.learning_rate * update
            self.trees.append(tree)
            if float(np.abs(residual).max(initial=0.0)) < 1e-12:
                break
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("GBT.predict called before fit")
        x = np.asarray(x, dtype=np.float64)
        out = np.full(len(x), self.base, dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(x)
        return out

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def to_json(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_json`); requires a fit."""
        if not self._fitted:
            raise RuntimeError("GBT.to_json called before fit")
        return {
            "n_trees": self.n_trees,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples": self.min_samples,
            "base": self.base,
            "trees": [tree.to_json() for tree in self.trees],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GradientBoostedTrees":
        model = cls(
            n_trees=int(data["n_trees"]),
            learning_rate=float(data["learning_rate"]),
            max_depth=int(data["max_depth"]),
            min_samples=int(data["min_samples"]),
        )
        model.base = float(data["base"])
        model.trees = [RegressionTree.from_json(t) for t in data["trees"]]
        model._fitted = True
        return model
