import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sepfx.forest import ForestPredictor, _grow_tree, _Tree, fit_forest, predict_forests

TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def reference_grow_tree(features, targets, rng, mtry, min_leaf) -> _Tree:
    """Node-by-node growth that argsorts each drawn feature afresh at every
    node: the search the presorted ``_grow_tree`` must reproduce bit for bit."""
    n, p = features.shape
    k = min(mtry, p)
    feat, thr, left, right, value = [], [], [], [], []

    def new_node() -> int:
        for column, blank in ((feat, -1), (thr, 0.0), (left, -1), (right, -1), (value, 0.0)):
            column.append(blank)
        return len(feat) - 1

    stack = [(new_node(), np.arange(n))]
    while stack:
        node, rows = stack.pop()
        yv = targets[rows]
        value[node] = float(yv.mean())
        if rows.size < 2 * min_leaf or np.ptp(yv) == 0.0:
            continue
        best_cost, best_feat, best_thr = np.inf, -1, 0.0
        for f in rng.choice(p, size=k, replace=False):
            order = np.argsort(features[rows, f], kind="stable")
            xs = features[rows, f][order]
            ys = yv[order]
            s1 = np.cumsum(ys)
            s2 = np.cumsum(ys * ys)
            sizes = np.arange(min_leaf, rows.size - min_leaf + 1)
            sizes = sizes[xs[sizes - 1] < xs[sizes]]
            if not sizes.size:
                continue
            l1 = s1[sizes - 1]
            l2 = s2[sizes - 1]
            costs = (l2 - l1 * l1 / sizes) + (
                (s2[-1] - l2) - (s1[-1] - l1) ** 2 / (rows.size - sizes)
            )
            j = int(np.argmin(costs))
            if costs[j] < best_cost:
                best_cost, best_feat = float(costs[j]), int(f)
                best_thr = 0.5 * (xs[sizes[j] - 1] + xs[sizes[j]])
        if best_feat < 0:
            continue
        mask = features[rows, best_feat] <= best_thr
        if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
            continue
        feat[node], thr[node] = best_feat, best_thr
        left[node], right[node] = new_node(), new_node()
        stack.append((left[node], rows[mask]))
        stack.append((right[node], rows[~mask]))

    return _Tree(
        feature=np.asarray(feat, dtype=np.int64),
        threshold=np.asarray(thr, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def tree_bytes(tree: _Tree) -> list[bytes]:
    return [getattr(tree, name).tobytes() for name in TREE_FIELDS]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 300),
    p=st.integers(1, 7),
    kind=st.sampled_from(["binary", "levels", "rounded", "continuous"]),
    labels=st.booleans(),
    mtry=st.integers(1, 5),
    min_leaf=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_presorted_growth_matches_the_node_by_node_search(
    n, p, kind, labels, mtry, min_leaf, seed
):
    g = np.random.default_rng(seed)
    if kind == "binary":
        x = g.integers(0, 2, size=(n, p)).astype(float)
    elif kind == "levels":
        x = 0.1 * g.integers(0, 4, size=(n, p))
    elif kind == "rounded":
        x = np.round(g.normal(size=(n, p)), 1)
    else:
        x = g.normal(size=(n, p))
    y = (g.random(n) < 0.4).astype(float) if labels else x[:, 0] + g.normal(size=n)
    rng_new = np.random.default_rng(seed + 1)
    rng_ref = np.random.default_rng(seed + 1)
    grown = _grow_tree(x, y, rng_new, mtry, min_leaf)
    reference = reference_grow_tree(x, y, rng_ref, mtry, min_leaf)
    assert tree_bytes(grown) == tree_bytes(reference)
    # the same draws were made, so the next tree of a forest is the same too
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_predict_forests_reads_nested_forests_off_one_pass():
    g = np.random.default_rng(3)
    x = g.normal(size=(120, 3))
    y = x[:, 0] + g.normal(size=120)
    big = fit_forest(x, y, 5, 2, 3, seed=1, clip=0.1)
    other = fit_forest(x, y, 2, 2, 3, seed=2)
    forests = [
        ForestPredictor(trees=big.trees[:2], clip=0.1),
        other,
        big,
        ForestPredictor(trees=big.trees[:2]),  # other clip: its own pass
        ForestPredictor(trees=big.trees[:4], clip=0.1),
    ]
    got = predict_forests(forests, x)
    for forest, pred in zip(forests, got):
        total = np.zeros(x.shape[0])
        for tree in forest.trees:
            total += tree.predict(x)
        want = total / len(forest.trees)
        if forest.clip is not None:
            want = np.clip(want, forest.clip, 1.0 - forest.clip)
        assert pred.tobytes() == want.tobytes()
