"""Random forest regression with histogram split search (Breiman 2001;
histogram splits as in Ke et al. 2017, LightGBM).

Trees are grown on bootstrap resamples with a random feature subset at
each node (``mtry``), squared-error split criterion, and a minimum leaf
size.  Classification reuses the regression machinery on 0/1 labels, so a
tree's leaf value is the within-leaf class frequency.

Each feature is binned once per feature matrix, on its rows: a feature
with at most ``MAX_BINS`` distinct values gets one bin per value, so
every node sees the same candidate partitions as an exhaustive search;
one with more gets at most ``MAX_BINS`` quantile bins.  Trees grow one
depth level at a time, and several trees can grow in one pass.  Per
level, one ``np.bincount`` over (node, drawn feature, bin) gives every
node's histogram, cumulative sums over the bins score every cut, one
generator call per tree draws the feature subsets of its splittable
nodes in node order, and the rows move to their children in one step.
Ties go to the lowest feature index, then the lowest cut.  A level with
many nodes is scored in blocks of nodes, so that no histogram has more
cells than the trees have rows times features.

A forest is drawn tree by tree from its seed, so a forest of t trees is
the first t trees of a larger forest with the same data and settings.
Forests with the same settings on different rows or targets, such as a
super learner's internal-fold and full-data forests for several label
sets, grow together through :func:`grow_forests`: tree t of every forest
grows in the same pass, and each forest comes out bit for bit as it
grows alone.  :func:`fit_forests` keeps the forests it grows, except
those whose trees are only wanted for their predictions on held-out
rows: each of those trees predicts as soon as it grows and is dropped,
and only the running sums are kept.
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
            codes[f] = inverse
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
    # one run of rows per drawn feature slot, so every inner loop is over rows
    feature = drawn.T.copy().take(slot, axis=1)
    bins = codes.ravel().take(feature * codes.shape[1] + rows)
    cell = (bins + slot * (k * width) + (np.arange(k) * width)[:, None]).ravel()
    y = np.concatenate([targets] * k)
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


def _grow_trees(jobs, mtry: int, min_leaf: int) -> list[_Tree]:
    """Grow one tree per job ``(codes, cuts, targets, rng)`` on binned
    features (``codes`` and ``cuts`` from :func:`_bin_features`, with the
    same features in every job); each tree's nodes are numbered breadth
    first.

    The trees grow together, one depth level of every tree per step, and
    each comes out as if grown alone: its rows sit in one increasing run,
    so every node's sums add its own rows in increasing order, and its
    generator draws the feature subsets of its own splittable nodes, in
    node order, with one call per level.  Histograms are as wide as the
    widest job's; the bins past a job's last one are empty, so no cut
    there is admissible.
    """
    codes = np.concatenate([job[0] for job in jobs], axis=1)
    targets = np.concatenate([job[2] for job in jobs])
    p, n = codes.shape
    k = min(mtry, p)
    width = max(job[1].shape[1] for job in jobs) + 1
    block = max(1, n * p // max(1, k * width))  # nodes per histogram, so cells <= n * p
    levels = []
    rows = np.arange(n)  # rows of the nodes still growing, in increasing order
    # each row's node, numbered within the level; the roots are the jobs
    node = np.repeat(np.arange(len(jobs)), [job[2].size for job in jobs])
    tree = np.arange(len(jobs))  # each node's job; a level's nodes come job by job
    first_id = 0  # nodes are numbered across jobs until each job's are renumbered at the end
    while tree.size:
        count = tree.size
        y = targets[rows]
        size = np.bincount(node, minlength=count)
        value = np.bincount(node, weights=y, minlength=count) / size
        some = np.empty(count)
        some[node] = y  # one of each node's targets; the node varies where another differs
        varies = np.bincount(node[y != some[node]], minlength=count) > 0
        feature = np.full(count, -1, dtype=np.int64)
        cut = np.zeros(count, dtype=np.intp)
        drawable = np.flatnonzero((size >= 2 * min_leaf) & varies)
        if drawable.size and k:
            # each job's draw for the level: its nodes' k features, in node order
            draws = np.empty((drawable.size, p))
            ends = np.cumsum(np.bincount(tree[drawable], minlength=len(jobs))).tolist()
            for job, lo, hi in zip(jobs, [0] + ends, ends):
                if hi > lo:
                    job[3].random(out=draws[lo:hi])
            drawn = np.sort(np.argsort(draws, axis=1)[:, :k], axis=1)
            slot = np.full(count, -1)
            slot[drawable] = np.arange(drawable.size)
            row_slot = slot[node]
            for lo in range(0, drawable.size, block):
                hi = min(lo + block, drawable.size)
                # when one block holds every node, it holds every row
                sel = slice(None) if hi - lo == count else (row_slot >= lo) & (row_slot < hi)
                at, best_cut = _best_cuts(
                    codes, y[sel], rows[sel], row_slot[sel] - lo, drawn[lo:hi], width, min_leaf
                )
                found = at >= 0
                nodes = drawable[lo:hi][found]
                feature[nodes] = drawn[lo:hi][found, at[found]]
                cut[nodes] = best_cut[found]
        split = feature >= 0
        rank = np.cumsum(split) - 1
        left = np.where(split, first_id + count + 2 * rank, -1)
        levels.append((tree, feature, cut, left, value))
        # rows of split nodes move to their children, in the same row order
        keep = split[node]
        rows, node = rows[keep], node[keep]
        goes_right = codes.ravel().take(feature.take(node) * n + rows) > cut.take(node)
        node = 2 * rank[node] + goes_right
        first_id += count
        tree = np.repeat(tree[split], 2)
    tree, feature, cut, left, value = (np.concatenate(parts) for parts in zip(*levels))
    # each job's nodes, breadth first: a stable sort keeps them in node order
    ends = np.cumsum(np.bincount(tree, minlength=len(jobs)))[:-1]
    trees = []
    for mine, (_, cuts, _, _) in zip(np.split(np.argsort(tree, kind="stable"), ends), jobs):
        split = feature[mine] >= 0
        own_left = np.where(split, np.searchsorted(mine, left[mine]), -1)
        threshold = np.zeros(mine.size)
        threshold[split] = cuts[feature[mine[split]], cut[mine[split]]]
        right = np.where(split, own_left + 1, -1)
        trees.append(_Tree(feature[mine], threshold, own_left, right, value[mine]))
    return trees


@dataclass
class ForestPredictor:
    """Bagged trees; prediction is the across-tree mean, summed in tree order."""

    trees: list[_Tree]
    clip: float | None = None

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = as_matrix(features)
        total = np.zeros(features.shape[0])
        for tree in self.trees:
            total += tree.predict(features)
        return _forest_mean(total, len(self.trees), self.clip)


def _forest_mean(total: np.ndarray, size: int, clip: float | None) -> np.ndarray:
    """A forest's prediction from the sum of its ``size`` trees' predictions."""
    pred = total / size
    return pred if clip is None else np.clip(pred, clip, 1.0 - clip)


def grow_forests(blocks, n_trees: int, mtry: int, min_leaf: int, seed: int):
    """Yield ``[tree t of every block]`` for t = 0, ..., ``n_trees`` - 1,
    where block ``(x, y)``'s trees are those of ``fit_forest(x, y, n_trees,
    mtry, min_leaf, seed)``, bit for bit; tree t of every block grows in
    one :func:`_grow_trees` pass.

    Each block has its own generator; tree t's bootstrap is drawn from it
    before tree t grows, and the growth makes that tree's own draws.  Each
    distinct feature matrix (the same object) is binned once, and the
    blocks that share it share its bins.
    """
    binned: dict = {}  # id(x) -> (x, codes, cuts); x is held so its id stays its own
    data = []
    for features, targets in blocks:
        if id(features) not in binned:
            binned[id(features)] = (features, *_bin_features(as_matrix(features)))
        _, codes, cuts = binned[id(features)]
        targets = np.asarray(targets, dtype=np.float64).ravel()
        data.append((codes, cuts, targets, np.random.default_rng(derive_seed(seed, "forest"))))
    for _ in range(n_trees):
        jobs = []
        for codes, cuts, targets, rng in data:
            rows = rng.integers(0, codes.shape[1], size=codes.shape[1])
            jobs.append((codes[:, rows], cuts, targets[rows], rng))
        yield _grow_trees(jobs, mtry, min_leaf)


def fit_forests(
    blocks,
    n_trees: int,
    mtry: int,
    min_leaf: int,
    seed: int,
    clip: float | None = None,
    sizes=(),
) -> list:
    """``[fit_forest(x, y, n_trees, mtry, min_leaf, seed, clip) for x, y in
    blocks]``, bit for bit, grown together by :func:`grow_forests`.

    A block ``(x, y, held_out)`` whose ``held_out`` is not None keeps no
    forest.  Its entry is ``{size: fit_forest(x, y, size, ...).predict(
    held_out) for size in sizes}`` instead, with ``sizes`` at most
    ``n_trees``: each of its trees predicts ``held_out`` as soon as it
    grows and is then dropped, into one running sum that is read at each
    size, as :meth:`ForestPredictor.predict` sums that many trees.
    """
    held = [
        None if len(block) < 3 or block[2] is None else as_matrix(block[2]) for block in blocks
    ]
    out: list = [[] if rows is None else {} for rows in held]
    totals = [None if rows is None else np.zeros(rows.shape[0]) for rows in held]
    rounds = grow_forests([block[:2] for block in blocks], n_trees, mtry, min_leaf, seed)
    for size, trees in enumerate(rounds, start=1):
        for b, rows in enumerate(held):
            if rows is None:
                out[b].append(trees[b])
                continue
            totals[b] += trees[b].predict(rows)
            if size in sizes:
                out[b][size] = _forest_mean(totals[b], size, clip)
        trees.clear()  # no name holds a tree, so each held-out block's tree is freed here
    return [ForestPredictor(entry, clip) if rows is None else entry for entry, rows in zip(out, held)]


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
    return fit_forests([(features, targets)], n_trees, mtry, min_leaf, seed, clip)[0]
