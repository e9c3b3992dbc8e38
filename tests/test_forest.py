from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sepfx.forest
from sepfx.forest import (
    MAX_BINS,
    ForestPredictor,
    _bin_features,
    _grow_trees,
    _Tree,
    fit_forest,
    fit_forests,
)

TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def reference_grow_tree(features, cuts, targets, rng, mtry, min_leaf) -> _Tree:
    """Node-by-node growth, breadth first, under the level-wise grower's
    rules: the tree ``_grow_trees`` must reproduce bit for bit.

    Bins are read off the thresholds (``x <= cuts[f, c]`` for bins 0..c)
    and rows move by comparing raw values with the chosen threshold.  Each
    node's sums add its rows in increasing row order, as the grower's
    histograms do, and each level draws every splittable node's features
    with one generator call, in node order.
    """
    n, p = features.shape
    k = min(mtry, p)
    width = cuts.shape[1] + 1
    codes = np.stack([np.searchsorted(cuts[f], features[:, f]) for f in range(p)])
    feat, thr, left, right, value = [], [], [], [], []
    level = [np.arange(n)]
    while level:
        first_id = len(feat)
        drawable = [
            rows.size >= 2 * min_leaf and np.ptp(targets[rows]) > 0.0 for rows in level
        ]
        draws = iter(rng.random((sum(drawable), p))) if any(drawable) and k else iter(())
        children = []
        for i, rows in enumerate(level):
            yv = targets[rows]
            feat.append(-1)
            thr.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(np.cumsum(yv)[-1] / rows.size)
            if not drawable[i] or not k:
                continue
            best_gain, best_feat, best_cut = -np.inf, -1, 0
            for f in sorted(np.argsort(next(draws))[:k]):
                nl = np.cumsum(np.bincount(codes[f, rows], minlength=width))
                s1 = np.cumsum(np.bincount(codes[f, rows], weights=yv, minlength=width))
                for c in range(width):
                    nr, r1 = nl[-1] - nl[c], s1[-1] - s1[c]
                    if nl[c] < min_leaf or nr < min_leaf:
                        continue
                    gain = s1[c] * s1[c] / nl[c] + r1 * r1 / nr
                    if gain > best_gain:
                        best_gain, best_feat, best_cut = gain, int(f), c
            if best_feat < 0:
                continue
            feat[-1], thr[-1] = best_feat, cuts[best_feat, best_cut]
            left[-1] = first_id + len(level) + len(children)
            right[-1] = left[-1] + 1
            mask = features[rows, best_feat] <= thr[-1]
            children += [rows[mask], rows[~mask]]
        level = children

    return _Tree(
        feature=np.asarray(feat, dtype=np.int64),
        threshold=np.asarray(thr, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def tree_bytes(tree: _Tree, fields=TREE_FIELDS) -> list[bytes]:
    return [getattr(tree, name).tobytes() for name in fields]


def feature_matrix(kind, g, n, p):
    if kind == "binary":
        return g.integers(0, 2, size=(n, p)).astype(float)
    if kind == "levels":
        return 0.1 * g.integers(0, 4, size=(n, p))
    if kind == "rounded":
        return np.round(g.normal(size=(n, p)), 1)
    if kind == "quantiles":  # more distinct values than bins
        return g.normal(size=(MAX_BINS + n, p))
    return g.normal(size=(n, p))


KINDS = ["binary", "levels", "rounded", "continuous", "quantiles"]


def job_lists(rows, min_size, max_size, kinds=KINDS):
    """Jobs (rows, feature kind, labels or not, seed)."""
    job = st.tuples(
        st.integers(2, rows), st.sampled_from(kinds), st.booleans(), st.integers(0, 2**32 - 2)
    )
    return st.lists(job, min_size=min_size, max_size=max_size)


# one quantile-binned job: nodes are scored two per block, so the deeper
# levels spread over several blocks
SEVERAL_BLOCKS = dict(jobs=[(300, "quantiles", False, 5)], p=1, mtry=1, min_leaf=1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    # many jobs of few rows; quantile bins need more than MAX_BINS rows each
    jobs=job_lists(300, 1, 4) | job_lists(24, 20, 30, [k for k in KINDS if k != "quantiles"]),
    p=st.integers(1, 7),
    mtry=st.integers(1, 5),
    min_leaf=st.integers(1, 8),
)
@example(**SEVERAL_BLOCKS)
def test_level_wise_growth_matches_the_node_by_node_search(jobs, p, mtry, min_leaf):
    """Trees grown together, each job with its own rows, feature kind,
    labels and generator, equal the node-by-node search on each job
    alone: up to four jobs, as a forest grows, or 20 to 30, as a batch of
    super learners grows tree t of all its forests."""
    grow, want, ends = [], [], []
    for n, kind, labels, seed in jobs:
        g = np.random.default_rng(seed)
        x = feature_matrix(kind, g, n, p)
        n = x.shape[0]
        y = (g.random(n) < 0.4).astype(float) if labels else x[:, 0] + g.normal(size=n)
        codes, cuts = _bin_features(x)
        grow.append((codes, cuts, y, np.random.default_rng(seed + 1)))
        rng_ref = np.random.default_rng(seed + 1)
        want.append(reference_grow_tree(x, cuts, y, rng_ref, mtry, min_leaf))
        ends.append(rng_ref.bit_generator.state)
    grown = _grow_trees(grow, mtry, min_leaf)
    assert len(grown) == len(jobs)
    for tree, reference, job, end in zip(grown, want, grow, ends):
        assert tree_bytes(tree) == tree_bytes(reference)
        # the same draws were made, so the next tree of a forest is the same too
        assert job[3].bit_generator.state == end


def test_the_several_blocks_example_spreads_a_level_over_several_blocks(monkeypatch):
    """The explicit example above keeps exercising what it is there for:
    the blocks of one level are slices of that level's drawn features."""
    levels = []
    real = sepfx.forest._best_cuts

    def recording(codes, targets, rows, slot, drawn, width, min_leaf):
        levels.append(drawn.base)
        return real(codes, targets, rows, slot, drawn, width, min_leaf)

    monkeypatch.setattr(sepfx.forest, "_best_cuts", recording)
    test_level_wise_growth_matches_the_node_by_node_search.hypothesis.inner_test(**SEVERAL_BLOCKS)
    # every base is still held, so no two levels share an id
    assert max(Counter(map(id, levels)).values()) > 1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.integers(2, 150), min_size=1, max_size=4),
    kind=st.sampled_from(KINDS),
    labels=st.booleans(),
    n_trees=st.integers(1, 4),
    mtry=st.integers(1, 4),
    min_leaf=st.integers(1, 6),
    clip=st.sampled_from([None, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
def test_forests_grown_together_equal_forests_grown_alone(
    rows, kind, labels, n_trees, mtry, min_leaf, clip, seed
):
    g = np.random.default_rng(seed)
    blocks = []
    for n in rows:
        x = feature_matrix(kind, g, n, 3)
        n = x.shape[0]
        y = (g.random(n) < 0.4).astype(float) if labels else x[:, 0] + g.normal(size=n)
        blocks.append((x, y))
    together = fit_forests(blocks, n_trees, mtry, min_leaf, seed, clip)
    alone = [fit_forest(x, y, n_trees, mtry, min_leaf, seed, clip) for x, y in blocks]
    assert len(together) == len(alone)
    for a, b in zip(together, alone):
        assert a.clip == b.clip and len(a.trees) == len(b.trees) == n_trees
        assert [tree_bytes(t) for t in a.trees] == [tree_bytes(t) for t in b.trees]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.integers(2, 150), min_size=1, max_size=3),
    kind=st.sampled_from(KINDS),
    n_trees=st.integers(1, 4),
    sizes=st.sets(st.integers(1, 4)),
    held=st.lists(st.booleans(), min_size=6, max_size=6),
    clip=st.sampled_from([None, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
def test_held_out_blocks_get_the_predictions_of_forests_grown_alone(
    rows, kind, n_trees, sizes, held, clip, seed
):
    """Blocks that share one feature matrix share its bins, and a block
    with held-out rows gets, at each size, the prediction of the forest of
    that many trees grown alone; a block without keeps its forest."""
    g = np.random.default_rng(seed)
    sizes = {size for size in sizes if size <= n_trees}
    blocks = []
    for n in rows:
        x = feature_matrix(kind, g, n, 3)
        m = x.shape[0]
        for labels in (False, True):  # two target sets on the same matrix
            y = (g.random(m) < 0.4).astype(float) if labels else x[:, 0] + g.normal(size=m)
            blocks.append((x, y, feature_matrix(kind, g, 7, 3) if held[len(blocks)] else None))
    got = fit_forests(blocks, n_trees, 2, 3, seed, clip, sizes)
    for (x, y, held_out), entry in zip(blocks, got):
        if held_out is None:
            alone = fit_forest(x, y, n_trees, 2, 3, seed, clip)
            assert [tree_bytes(t) for t in entry.trees] == [tree_bytes(t) for t in alone.trees]
            continue
        assert set(entry) == sizes
        for size, pred in entry.items():
            want = fit_forest(x, y, size, 2, 3, seed, clip).predict(held_out)
            assert pred.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3000),
    distinct=st.integers(1, 2 * MAX_BINS),
    seed=st.integers(0, 2**32 - 1),
)
def test_bins_keep_values_apart_up_to_the_limit_and_cut_between_them(n, distinct, seed):
    g = np.random.default_rng(seed)
    x = np.round(g.normal(size=distinct), 3)[g.integers(0, distinct, size=n)].reshape(-1, 1)
    codes, cuts = _bin_features(x)
    values = np.unique(x)
    bins = cuts.shape[1] + 1
    assert bins <= MAX_BINS and codes.max() == bins - 1
    if values.size <= MAX_BINS:
        assert bins == values.size
    for c in range(bins - 1):
        below = x[codes[0] <= c, 0]
        above = x[codes[0] > c, 0]
        # bins are ordered runs of values, and each cut is the midpoint between runs
        assert below.max() < above.min()
        assert cuts[0, c] == 0.5 * (below.max() + above.min())
    assert np.array_equal(np.searchsorted(cuts[0], x[:, 0]), codes[0])


MONOTONE_MAPS = {
    "exp": np.exp,
    "affine": lambda v: 3.0 * v + 7.0,
    "cube": lambda v: v**3 - 2.0,
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 200),
    p=st.integers(2, 6),
    kind=st.sampled_from(["binary", "levels", "rounded"]),
    labels=st.booleans(),
    mapped=st.integers(0, 5),
    transform=st.sampled_from(sorted(MONOTONE_MAPS)),
    mtry=st.integers(1, 6),
    min_leaf=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_growth_sees_only_the_order_of_a_features_values(
    n, p, kind, labels, mapped, transform, mtry, min_leaf, seed
):
    """A strictly increasing map of one feature leaves the tree's shape,
    leaves and draws alone and sends every training row to the same leaf;
    a constant column is never split on."""
    g = np.random.default_rng(seed)
    x = feature_matrix(kind, g, n, p)
    x[:, -1] = 2.5  # constant column
    f = mapped % (p - 1)
    y = (g.random(n) < 0.5).astype(float) if labels else x[:, 0] - x[:, f] + g.normal(size=n)
    x_mapped = x.copy()
    x_mapped[:, f] = MONOTONE_MAPS[transform](x[:, f])
    trees, states = [], []
    for data in (x, x_mapped):
        rng = np.random.default_rng(seed + 1)
        trees.append(_grow_trees([(*_bin_features(data), y, rng)], mtry, min_leaf)[0])
        states.append(rng.bit_generator.state)
    fields = ("feature", "left", "right", "value")
    assert tree_bytes(trees[0], fields) == tree_bytes(trees[1], fields)
    assert states[0] == states[1]
    assert trees[0].predict(x).tobytes() == trees[1].predict(x_mapped).tobytes()
    assert p - 1 not in trees[0].feature


def test_rows_move_with_the_thresholds_they_are_predicted_by():
    """Adjacent floats have no midpoint strictly between them; the cut
    falls back to the lower value, so training rows predict into the
    leaves they were grown in."""
    low = 1.0
    high = np.nextafter(low, 2.0)
    x = np.array([[low], [high]] * 10)
    y = np.array([0.0, 1.0] * 10)
    codes, cuts = _bin_features(x)
    assert cuts[0, 0] == low
    (tree,) = _grow_trees([(codes, cuts, y, np.random.default_rng(0))], 1, 1)
    assert np.array_equal(tree.predict(x), y)


def test_nested_forests_predict_their_own_trees_summed_in_order():
    """Slices of one forest's tree list, under two clips, each predict the
    bytes of their own trees' predictions added in tree order from zeros."""
    g = np.random.default_rng(3)
    x = g.normal(size=(120, 3))
    y = x[:, 0] + g.normal(size=120)
    big = fit_forest(x, y, 5, 2, 3, seed=1, clip=0.1)
    other = fit_forest(x, y, 2, 2, 3, seed=2)
    forests = [
        ForestPredictor(trees=big.trees[:2], clip=0.1),
        other,
        big,
        ForestPredictor(trees=big.trees[:2]),  # the same trees, another clip
        ForestPredictor(trees=big.trees[:4], clip=0.1),
    ]
    for forest in forests:
        pred = forest.predict(x)
        total = np.zeros(x.shape[0])
        for tree in forest.trees:
            total += tree.predict(x)
        want = total / len(forest.trees)
        if forest.clip is not None:
            want = np.clip(want, forest.clip, 1.0 - forest.clip)
        assert pred.tobytes() == want.tobytes()
