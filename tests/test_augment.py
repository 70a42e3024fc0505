from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulcontrast.augment import (augment_tokens, random_delete,
                                 keyed_rng, random_swap)
from vulcontrast.data import UNK_TOKEN, Vocabulary, encode

TOKENS = [f"t{i}" for i in range(10)]


def rng(seed=0):
    return np.random.default_rng(seed)


def views(example_id, code_tokens, text_tokens, alpha, seed):
    """The (code, text) augmented views of one example, drawn from their
    substreams the way training draws them."""
    return (augment_tokens(code_tokens, alpha,
                           keyed_rng(seed, example_id, "code", 0)),
            augment_tokens(text_tokens, alpha,
                           keyed_rng(seed, example_id, "text", 0)))


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
        s_code = keyed_rng(7, "ex", "code", 0)
        s_text = keyed_rng(7, "ex", "text", 0)
        assert s_code.integers(0, 10 ** 9) != s_text.integers(0, 10 ** 9)

    def test_epoch_indexed_substreams_differ(self):
        a = augment_tokens(TOKENS, 0.5, keyed_rng(7, "ex", "code", 0))
        b = augment_tokens(TOKENS, 0.5, keyed_rng(7, "ex", "code", 1))
        # not guaranteed different in general, but with alpha 0.5 on 10
        # tokens the replay collision would be astronomically unlikely
        assert a != b

    def test_alpha_bounds_enforced(self):
        for alpha in (1.5, -0.3):
            with pytest.raises(ValueError):
                augment_tokens(TOKENS, alpha, keyed_rng(0, "x", "code", 0))

    @pytest.mark.parametrize("alpha,key,expect", [
        (0.3, (4, "fx-0001", "code", 0),
         ["t1", "t0", "t3", "t4", "t6", "t7", "t5"]),
        (0.3, (4, "fx-0001", "text", 2),
         ["t8", "t2", "t3", "t0", "t6", "t1", "t5", "t9"]),
        (0.5, (0, 7, "code", 9), ["t0", "t2", "t6", "t9", "t7", "t5"]),
    ])
    def test_views_pinned_for_fixed_keys(self, alpha, key, expect):
        # recorded before the stream helper was shared with parameter
        # initialisation; a change here changes every augmented view
        assert augment_tokens(TOKENS, alpha, keyed_rng(*key)) == expect


class TestAugmentedIds:
    """Training encodes each record once, then augments and cuts its ids.
    That gives the ids of the augmented, cut tokens, because the draws
    depend only on a sequence's length."""

    # t6 to t9 are out of vocabulary, so several tokens share <unk>'s id
    VOCAB = Vocabulary({UNK_TOKEN: 0,
                        **{t: i + 1 for i, t in enumerate(TOKENS[:6])}},
                       "code")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=60),
           st.floats(0, 1), st.integers(1, 80),
           st.tuples(st.integers(0, 10 ** 6), st.text(max_size=4),
                     st.sampled_from(["code", "text"]),
                     st.integers(0, 20)))
    def test_augmenting_then_cutting_ids_commutes_with_encode(
            self, toks, alpha, cut, key):
        ids = encode(toks, self.VOCAB, len(toks)).tokens
        assert augment_tokens(ids, alpha, keyed_rng(*key))[:cut] == encode(
            augment_tokens(toks, alpha, keyed_rng(*key)), self.VOCAB,
            cut).tokens
