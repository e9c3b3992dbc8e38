"""Random forest regression with histogram split search (Breiman 2001;
histogram splits as in Ke et al. 2017, LightGBM).

Trees are grown on bootstrap resamples with a random feature subset at
each node (``mtry``), squared-error split criterion, and a minimum leaf
size.  Classification reuses the regression machinery on 0/1 labels, so a
tree's leaf value is the within-leaf class frequency.

Each feature is binned once per forest, on the forest's training rows: a
feature with at most ``MAX_BINS`` distinct values gets one bin per value,
so every node sees the same candidate partitions as an exhaustive search;
one with more gets at most ``MAX_BINS`` quantile bins.  A tree grows one
depth level at a time.  Per level, one ``np.bincount`` over (node, drawn
feature, bin) gives every node's histogram, cumulative sums over the bins
score every cut, one generator call draws the feature subsets of all
splittable nodes in node order, and the rows move to their children in
one step.  Ties go to the lowest feature index, then the lowest cut.  A
level with many nodes is scored in blocks of nodes, so that no histogram
has more cells than the tree has rows times features.

A forest is drawn tree by tree from its seed, so a forest of t trees is
the first t trees of a larger forest with the same data and settings.
:func:`predict_forests` predicts such nested forests in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed

MAX_BINS = 256  # bins per feature; exact for features with at most this many values


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


def _bin_features(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row's bin of every feature, and the thresholds between bins.

    Returns ``codes``, a (p, n) integer array with row i's bin of feature f
    at ``[f, i]``, and ``cuts``, whose entry ``[f, c]`` is the threshold
    between bins c and c + 1 of feature f (inf past the feature's last
    bin).  A feature with at most ``MAX_BINS`` distinct values gets one
    bin per value; one with more gets ``MAX_BINS`` or fewer quantile bins,
    and equal values always share a bin.  A threshold is the midpoint of
    the values on either side of it, or the lower value when the midpoint
    rounds onto the upper one, so ``x <= cuts[f, c]`` holds exactly for
    the rows in bins 0..c.
    """
    n, p = features.shape
    codes = np.empty((p, n), dtype=np.min_scalar_type(MAX_BINS - 1))
    thresholds = []
    for f in range(p):
        values, inverse, counts = np.unique(
            features[:, f], return_inverse=True, return_counts=True
        )
        if values.size <= MAX_BINS:
            last = np.arange(values.size - 1)  # index of each bin's largest value
        else:
            # a bin ends where the running count first reaches a multiple of n / MAX_BINS
            reach = np.searchsorted(MAX_BINS * np.cumsum(counts), np.arange(1, MAX_BINS) * n)
            last = np.unique(reach[reach < values.size - 1])
        codes[f] = np.searchsorted(last, np.arange(values.size))[inverse]
        below, above = values[last], values[last + 1]
        with np.errstate(over="ignore"):
            mid = 0.5 * (below + above)
        thresholds.append(np.where(mid < above, mid, below))
    cuts = np.full((p, max(map(len, thresholds), default=0)), np.inf)
    for f, values in enumerate(thresholds):
        cuts[f, : values.size] = values
    return codes, cuts


def _best_cuts(
    codes: np.ndarray,
    targets: np.ndarray,
    rows: np.ndarray,
    slot: np.ndarray,
    drawn: np.ndarray,
    width: int,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Each drawn node's best (drawn feature slot, cut), or (-1, 0) for a
    node with no admissible cut.

    ``slot`` numbers each row's node within the block of drawn nodes; the
    rows come in increasing order, so every histogram cell sums its rows
    in that order.  A cut's score is its SSE gain up to the node's own
    constant, ``l1**2 / nl + r1**2 / nr``; cuts leaving fewer than
    ``min_leaf`` rows on a side are inadmissible.  Ties go to the lowest
    feature, then the lowest cut, because ``drawn`` rows are sorted and
    ``argmax`` returns the first maximum.
    """
    nodes, k = drawn.shape
    shape = (nodes, k, width)
    bins = codes[drawn[slot], rows[:, None]]
    cell = ((slot[:, None] * k + np.arange(k)) * width + bins).ravel()
    y = np.repeat(targets, k)
    nl = np.bincount(cell, minlength=nodes * k * width).reshape(shape).cumsum(axis=2)
    s1 = np.bincount(cell, weights=y, minlength=nodes * k * width).reshape(shape).cumsum(axis=2)
    nr = nl[:, :, -1:] - nl
    r1 = s1[:, :, -1:] - s1
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = s1 * s1 / nl + r1 * r1 / nr
    gain = np.where((nl >= min_leaf) & (nr >= min_leaf), gain, -np.inf).reshape(nodes, -1)
    best = gain.argmax(axis=1)
    found = gain[np.arange(nodes), best] > -np.inf
    return np.where(found, best // width, -1), np.where(found, best % width, 0)


def _grow_tree(
    codes: np.ndarray,
    cuts: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
    mtry: int,
    min_leaf: int,
) -> _Tree:
    """Grow one tree level by level on binned features (``codes`` and
    ``cuts`` from :func:`_bin_features`); nodes are numbered breadth first."""
    p, n = codes.shape
    k = min(mtry, p)
    width = cuts.shape[1] + 1
    block = max(1, n * p // max(1, k * width))  # nodes per histogram, so cells <= n * p
    levels = []
    rows = np.arange(n)  # rows of the nodes still growing, in increasing order
    node = np.zeros(n, dtype=np.intp)  # each row's node, numbered within its level
    count, first_id = 1, 0
    while count:
        y = targets[rows]
        size = np.bincount(node, minlength=count)
        value = np.bincount(node, weights=y, minlength=count) / size
        low = np.full(count, np.inf)
        high = np.full(count, -np.inf)
        np.minimum.at(low, node, y)
        np.maximum.at(high, node, y)
        feature = np.full(count, -1, dtype=np.int64)
        cut = np.zeros(count, dtype=np.intp)
        drawable = np.flatnonzero((size >= 2 * min_leaf) & (high > low))
        if drawable.size and k:
            # one draw for the level: each node's k features, in node order
            drawn = np.sort(np.argsort(rng.random((drawable.size, p)), axis=1)[:, :k], axis=1)
            slot = np.full(count, -1)
            slot[drawable] = np.arange(drawable.size)
            row_slot = slot[node]
            for lo in range(0, drawable.size, block):
                hi = min(lo + block, drawable.size)
                sel = (row_slot >= lo) & (row_slot < hi)
                at, best_cut = _best_cuts(
                    codes, y[sel], rows[sel], row_slot[sel] - lo, drawn[lo:hi], width, min_leaf
                )
                found = at >= 0
                nodes = drawable[lo:hi][found]
                feature[nodes] = drawn[lo:hi][found, at[found]]
                cut[nodes] = best_cut[found]
        split = feature >= 0
        n_split = int(split.sum())
        left = np.full(count, -1, dtype=np.int64)
        left[split] = first_id + count + 2 * np.arange(n_split)
        right = np.where(split, left + 1, -1)
        threshold = np.zeros(count)
        threshold[split] = cuts[feature[split], cut[split]]
        levels.append((feature, threshold, left, right, value))
        # rows of split nodes move to their children, in the same row order
        keep = split[node]
        rows, node = rows[keep], node[keep]
        rank = np.cumsum(split) - 1
        goes_right = codes[feature[node], rows] > cut[node]
        node = 2 * rank[node] + goes_right
        first_id += count
        count = 2 * n_split
    return _Tree(*(np.concatenate(parts) for parts in zip(*levels)))


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
    """Fit a bagged forest; deterministic for a fixed (data, params, seed).

    The features are binned once, on these rows, and every tree grows on
    a bootstrap resample of their bins.
    """
    features = as_matrix(features)
    targets = np.asarray(targets, dtype=np.float64).ravel()
    n = features.shape[0]
    codes, cuts = _bin_features(features)
    rng = np.random.default_rng(derive_seed(seed, "forest"))
    trees = []
    for _ in range(n_trees):
        rows = rng.integers(0, n, size=n)
        trees.append(_grow_tree(codes[:, rows], cuts, targets[rows], rng, mtry, min_leaf))
    return ForestPredictor(trees=trees, clip=clip)
