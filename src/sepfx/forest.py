"""Random forest regression with CART-style exhaustive split search.

Trees are grown on bootstrap resamples with a random feature subset at
each node (``mtry``), squared-error split criterion, and a minimum leaf
size.  Classification reuses the regression machinery on 0/1 labels, so a
tree's leaf value is the within-leaf class frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed


def as_matrix(features) -> np.ndarray:
    """Features as a float64 matrix; a 1-d input is one feature column."""
    arr = np.asarray(features, dtype=np.float64)
    return arr.reshape(-1, 1) if arr.ndim == 1 else arr


@dataclass
class _Tree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, features: np.ndarray) -> np.ndarray:
        node = np.zeros(features.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            rows = np.nonzero(active)[0]
            at = node[rows]
            go_left = features[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
            active = self.feature[node] >= 0
        return self.value[node]


def _grow_tree(
    features: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
    mtry: int,
    min_leaf: int,
) -> _Tree:
    n, p = features.shape
    k = min(mtry, p)
    feat: list[int] = []
    thr: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feat.append(-1)
        thr.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feat) - 1

    stack = [(new_node(), np.arange(n))]
    while stack:
        node, rows = stack.pop()
        yv = targets[rows]
        value[node] = float(yv.mean())
        if rows.size < 2 * min_leaf or np.ptp(yv) == 0.0:
            continue
        best_cost = np.inf
        best_feat = -1
        best_thr = 0.0
        for f in rng.choice(p, size=k, replace=False):
            xv = features[rows, f]
            order = np.argsort(xv, kind="stable")
            xs = xv[order]
            ys = yv[order]
            s1 = np.cumsum(ys)
            s2 = np.cumsum(ys * ys)
            sizes = np.arange(min_leaf, rows.size - min_leaf + 1)
            valid = xs[sizes - 1] < xs[sizes]
            if not valid.any():
                continue
            sizes = sizes[valid]
            l1 = s1[sizes - 1]
            l2 = s2[sizes - 1]
            costs = (l2 - l1 * l1 / sizes) + (
                (s2[-1] - l2) - (s1[-1] - l1) ** 2 / (rows.size - sizes)
            )
            j = int(np.argmin(costs))
            if costs[j] < best_cost:
                best_cost = float(costs[j])
                best_feat = int(f)
                best_thr = 0.5 * (xs[sizes[j] - 1] + xs[sizes[j]])
        if best_feat < 0:
            continue
        mask = features[rows, best_feat] <= best_thr
        l_rows = rows[mask]
        r_rows = rows[~mask]
        # midpoints between adjacent floats can collapse onto one side
        if l_rows.size < min_leaf or r_rows.size < min_leaf:
            continue
        feat[node] = best_feat
        thr[node] = best_thr
        l_id = new_node()
        r_id = new_node()
        left[node] = l_id
        right[node] = r_id
        stack.append((l_id, l_rows))
        stack.append((r_id, r_rows))

    return _Tree(
        feature=np.asarray(feat, dtype=np.int64),
        threshold=np.asarray(thr, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


@dataclass
class ForestPredictor:
    """Bagged trees; prediction is the across-tree mean."""

    trees: list[_Tree]
    clip: float | None = None

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = as_matrix(features)
        total = np.zeros(features.shape[0])
        for tree in self.trees:
            total += tree.predict(features)
        out = total / len(self.trees)
        if self.clip is not None:
            out = np.clip(out, self.clip, 1.0 - self.clip)
        return out


def fit_forest(
    features: np.ndarray,
    targets: np.ndarray,
    n_trees: int,
    mtry: int,
    min_leaf: int,
    seed: int,
    clip: float | None = None,
) -> ForestPredictor:
    """Fit a bagged forest; deterministic for a fixed (data, params, seed)."""
    features = as_matrix(features)
    targets = np.asarray(targets, dtype=np.float64).ravel()
    n = features.shape[0]
    rng = np.random.default_rng(derive_seed(seed, "forest"))
    trees = []
    for _ in range(n_trees):
        rows = rng.integers(0, n, size=n)
        trees.append(_grow_tree(features[rows], targets[rows], rng, mtry, min_leaf))
    return ForestPredictor(trees=trees, clip=clip)
