"""Random forest regression with CART-style exhaustive split search.

Trees are grown on bootstrap resamples with a random feature subset at
each node (``mtry``), squared-error split criterion, and a minimum leaf
size.  Classification reuses the regression machinery on 0/1 labels, so a
tree's leaf value is the within-leaf class frequency.

The split search is presorted: each feature is argsorted once per tree
(stably), and every child filters its parent's sorted rows instead of
sorting again.  At a node the drawn features are scored together as one
block, and only at cut points between distinct adjacent values.  Nodes
are grown depth first, so every random draw happens in the same order as
a node-by-node search that sorts afresh, and the trees are the same bit
for bit.

A forest is drawn tree by tree from its seed, so a forest of t trees is
the first t trees of a larger forest with the same data and settings.
:func:`predict_forests` predicts such nested forests in one pass.
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
    columns = np.ascontiguousarray(features.T)
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

    # A node holds its rows in increasing order and, in row f of ``order``,
    # the same rows stably sorted by feature f.  A child's rows keep their
    # parent's relative order, so filtering the parent's ``order`` gives
    # exactly the stable argsort the child would compute for itself.
    stack = [(new_node(), np.arange(n), np.argsort(columns, axis=1, kind="stable"))]
    while stack:
        node, rows, order = stack.pop()
        m = rows.size
        yv = targets[rows]
        value[node] = float(yv.sum()) / m  # == float(yv.mean())
        if m < 2 * min_leaf or yv.max() - yv.min() == 0.0:  # == np.ptp(yv)
            continue
        drawn = rng.choice(p, size=k, replace=False)
        idx = order[drawn]
        xs = columns[drawn[:, None], idx]
        # candidate splits: between adjacent sorted rows whose values differ,
        # leaving at least min_leaf rows on each side
        lo, hi = min_leaf - 1, m - min_leaf
        feat_at, cut = np.nonzero(xs[:, lo:hi] < xs[:, lo + 1 : hi + 1])
        best_cost = np.inf
        best_feat = -1
        best_thr = 0.0
        if cut.size:
            cut += lo
            ys = targets[idx]
            s1 = np.cumsum(ys, axis=1)
            s2 = np.cumsum(ys * ys, axis=1)
            l1 = s1[feat_at, cut]
            l2 = s2[feat_at, cut]
            sizes = cut + 1
            costs = np.full((k, hi - lo), np.inf)
            costs[feat_at, cut - lo] = (l2 - l1 * l1 / sizes) + (
                (s2[feat_at, -1] - l2) - (s1[feat_at, -1] - l1) ** 2 / (m - sizes)
            )
            best_at = costs.argmin(axis=1)
            for r in range(k):
                j = best_at[r]
                if costs[r, j] < best_cost:
                    best_cost = costs[r, j]
                    best_feat = int(drawn[r])
                    best_thr = 0.5 * (xs[r, lo + j] + xs[r, lo + j + 1])
        if best_feat < 0:
            continue
        mask = columns[best_feat, rows] <= best_thr
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
        goes_left = columns[best_feat, order] <= best_thr
        stack.append((l_id, l_rows, order[goes_left].reshape(p, -1)))
        stack.append((r_id, r_rows, order[~goes_left].reshape(p, -1)))

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
        return predict_forests([self], features)[0]


def predict_forests(forests, features) -> list[np.ndarray]:
    """``[forest.predict(features) for forest in forests]``, bit for bit.

    Forests whose trees are a leading slice of another forest's tree list
    (the same tree objects, with the same ``clip``) are read off one pass
    over the longer forest: each takes the running sum at its own size, so
    the same floats are added in the same order as a pass of its own.
    """
    features = as_matrix(features)
    out: list = [None] * len(forests)
    longest_first = sorted(range(len(forests)), key=lambda j: -len(forests[j].trees))
    for root in longest_first:
        if out[root] is not None:
            continue
        trees = forests[root].trees
        members = [
            j
            for j in longest_first
            if out[j] is None
            and forests[j].clip == forests[root].clip
            and all(a is b for a, b in zip(forests[j].trees, trees))
        ]
        total = np.zeros(features.shape[0])
        grown = 0
        for j in reversed(members):
            size = len(forests[j].trees)
            while grown < size:
                total += trees[grown].predict(features)
                grown += 1
            pred = total / size
            clip = forests[j].clip
            out[j] = pred if clip is None else np.clip(pred, clip, 1.0 - clip)
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
