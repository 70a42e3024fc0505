from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulcontrast.augment import (augment_tokens, random_delete,
                                 random_swap, _substream)

TOKENS = [f"t{i}" for i in range(10)]


def rng(seed=0):
    return np.random.default_rng(seed)


def views(example_id, code_tokens, text_tokens, alpha, seed):
    """The (code, text) augmented views of one example, drawn from their
    substreams the way training draws them."""
    return (augment_tokens(code_tokens, alpha,
                           _substream(seed, example_id, "code")),
            augment_tokens(text_tokens, alpha,
                           _substream(seed, example_id, "text")))


class TestRandomSwap:
    def test_alpha_zero_identity(self):
        assert random_swap(TOKENS, 0.0, rng()) == TOKENS

    def test_one_swap_at_alpha_005(self):
        # n = max(1, floor(0.05 * 10)) = 1, so exactly two positions differ
        out = random_swap(TOKENS, 0.05, rng(3))
        diffs = [i for i, (a, b) in enumerate(zip(TOKENS, out)) if a != b]
        assert len(diffs) == 2

    def test_two_tokens_swap(self):
        assert random_swap(["a", "b"], 0.5, rng(1)) == ["b", "a"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            random_swap([], 0.1, rng())

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text("ab", min_size=1, max_size=3), min_size=1,
                    max_size=30),
           st.floats(0, 1), st.integers(0, 10 ** 6))
    def test_multiset_preserved(self, tokens, alpha, seed):
        out = random_swap(tokens, alpha, rng(seed))
        assert Counter(out) == Counter(tokens)


class TestRandomDelete:
    def test_alpha_zero_identity(self):
        assert random_delete(TOKENS, 0.0, rng()) == TOKENS

    def test_alpha_one_keeps_one(self):
        out = random_delete(["a", "b", "c", "d", "e"], 1.0, rng(2))
        assert len(out) == 1

    def test_seed_replay(self):
        a = random_delete(TOKENS, 0.1, rng(9))
        b = random_delete(TOKENS, 0.1, rng(9))
        assert a == b

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text("ab", min_size=1, max_size=3), min_size=1,
                    max_size=30),
           st.floats(0, 1), st.integers(0, 10 ** 6))
    def test_nonempty_subsequence(self, tokens, alpha, seed):
        out = random_delete(tokens, alpha, rng(seed))
        assert len(out) >= 1
        it = iter(tokens)
        assert all(any(t == o for t in it) for o in out), \
            "output is not a subsequence"

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5])
    def test_mean_survivors(self, alpha):
        tokens = [str(i) for i in range(100)]
        lengths = [len(random_delete(tokens, alpha, rng(s)))
                   for s in range(10_000)]
        assert abs(np.mean(lengths) - (1 - alpha) * 100) < 3


class TestViews:
    def test_alpha_zero_views_equal_originals(self):
        code, text = views("x", ["a", "b"], ["c", "d"], 0.0, 5)
        assert code == ["a", "b"]
        assert text == ["c", "d"]

    def test_single_token_inputs_unchanged(self):
        code, text = views("x", ["only"], ["word"], 0.9, 5)
        assert code == ["only"]
        assert text == ["word"]

    def test_deterministic_per_example_and_seed(self):
        a = views("ex-1", TOKENS, TOKENS, 0.3, 11)
        b = views("ex-1", TOKENS, TOKENS, 0.3, 11)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_views_use_independent_substreams(self):
        s_code = _substream(7, "ex", "code")
        s_text = _substream(7, "ex", "text")
        assert s_code.integers(0, 10 ** 9) != s_text.integers(0, 10 ** 9)

    def test_epoch_indexed_substreams_differ(self):
        a = augment_tokens(TOKENS, 0.5, _substream(7, "ex", "code", 0))
        b = augment_tokens(TOKENS, 0.5, _substream(7, "ex", "code", 1))
        # not guaranteed different in general, but with alpha 0.5 on 10
        # tokens the replay collision would be astronomically unlikely
        assert a != b

    def test_alpha_bounds_enforced(self):
        for alpha in (1.5, -0.3):
            with pytest.raises(ValueError):
                augment_tokens(TOKENS, alpha, _substream(0, "x", "code"))
