"""Sturmian tree labelings pinned against the per-node labeler.

`data/labels_pinned.json` holds the sha256 of the label bytes of
`label_tree_lex` and `label_tree_random` (seeds in SEEDS) at the depths
in DEPTHS, on the Fibonacci slope and on one 40-term continued-fraction
slope, plus the lex `tree_complexity(tree, 10)` at depth 20 on both
slopes. Regenerate it from the package of commit 7660d48, the last one
that labeled node by node and took the census one window per root:

    mkdir old && git archive 7660d48 src | tar -x -C old
    PYTHONPATH=old/src python tests/test_labels_pinned.py > tests/data/labels_pinned.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from treeshift.sturmian import (
    SturmianParams,
    label_tree_lex,
    label_tree_random,
    tree_complexity,
)

PINNED = Path(__file__).with_name("data") / "labels_pinned.json"
SLOPES = {
    "fibonacci": [0, 2] + [1] * 78,
    "cf40": [0] + [1, 3, 2, 1, 1, 2, 3, 3, 1, 2] * 4,
}
DEPTHS = (0, 1, 12, 20)
SEEDS = (0, 1, 2, 953064)
PROFILE_DEPTH = 20
PROFILE_BLOCKS = 10


def _params(slope: str) -> SturmianParams:
    return SturmianParams.from_continued_fraction(SLOPES[slope])


def _digest(tree) -> str:
    return hashlib.sha256(tree.labels).hexdigest()


def _trees(slope: str, depth: int):
    """(key, tree) for the lex tree and every seeded random tree."""
    params = _params(slope)
    yield f"{slope}/lex/{depth}", label_tree_lex(params, depth)
    for seed in SEEDS:
        yield f"{slope}/random/{seed}/{depth}", label_tree_random(params, depth, seed)


def _generate() -> dict:
    pinned = {}
    for slope in SLOPES:
        for depth in DEPTHS:
            for key, tree in _trees(slope, depth):
                pinned[key] = _digest(tree)
        tree = label_tree_lex(_params(slope), PROFILE_DEPTH)
        pinned[f"{slope}/lex/{PROFILE_DEPTH}/p_tau"] = tree_complexity(tree, PROFILE_BLOCKS)
    return pinned


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("slope", sorted(SLOPES))
def test_labels_match_pinned_digests(slope, depth):
    pinned = json.loads(PINNED.read_text())
    for key, tree in _trees(slope, depth):
        assert _digest(tree) == pinned[key], key


@pytest.mark.parametrize("slope", sorted(SLOPES))
def test_lex_profile_matches_pinned(slope):
    pinned = json.loads(PINNED.read_text())
    tree = label_tree_lex(_params(slope), PROFILE_DEPTH)
    assert tree_complexity(tree, PROFILE_BLOCKS) == pinned[f"{slope}/lex/{PROFILE_DEPTH}/p_tau"]


if __name__ == "__main__":
    json.dump(_generate(), sys.stdout, indent=1)
    sys.stdout.write("\n")
