import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulcontrast.data import (DatasetError, FunctionRecord, build_vocab,
                              dataset_stats, encode, load_jsonl, save_jsonl,
                              stratified_split, tokenize, UNK_ID, PAD_ID)


def rec(i, label, code="int f ( ) { return 0 ; }", **kw):
    return FunctionRecord(id=f"r{i}", code=code, label=label, **kw)


class TestLoadJsonl:
    def test_minimal_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"code":"int f(){return 0;}","label":0}\n')
        records = load_jsonl(path)
        assert len(records) == 1
        assert records[0].label == 0
        assert records[0].id == "line-1"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        assert load_jsonl(path) == []

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"code":"x","label":0}\n{"code":"y","label":2}\n')
        with pytest.raises(DatasetError, match="line 2"):
            load_jsonl(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"code":"x","label":0}\nnot json\n')
        with pytest.raises(DatasetError, match="line 2"):
            load_jsonl(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","code":"x","label":0}\n'
                        '{"id":"b","code":"y","label":1}\n'
                        '{"id":"a","code":"z","label":1}\n')
        with pytest.raises(DatasetError, match="'a' on lines 1 and 3"):
            load_jsonl(path)

    def test_bad_cwe_rejected(self):
        with pytest.raises(DatasetError, match="CWE"):
            rec(0, 1, cwe=["CWE-abc"])

    def test_round_trip_lossless(self, tmp_path):
        records = [
            rec(0, 0),
            rec(1, 1, comment="Does a thing.", cwe=["CWE-119"],
                project="p"),
        ]
        path = tmp_path / "d.jsonl"
        save_jsonl(records, path)
        loaded = load_jsonl(path)
        assert [r.to_json_obj() for r in loaded] == \
            [r.to_json_obj() for r in records]


class TestTokenize:
    def test_code_splitting(self):
        assert tokenize("a=b+1;", "code") == ["a", "=", "b", "+", "1", ";"]

    def test_text_trailing_punctuation(self):
        assert tokenize("Computes the factorial.", "text") == \
            ["Computes", "the", "factorial", "."]

    def test_empty_input(self):
        assert tokenize("", "code") == ["<unk>"]
        assert tokenize("   ", "text") == ["<unk>"]

    def test_code_multi_punct(self):
        assert tokenize("f(x)", "code") == ["f", "(", "x", ")"]

    def test_unknown_modality(self):
        with pytest.raises(ValueError):
            tokenize("x", "audio")


class TestVocab:
    def test_frequency_order(self):
        records = [rec(0, 0, code="a a a b")]
        vocab = build_vocab(records, "code", 10)
        assert vocab.token_to_id == {"<unk>": 0, "<pad>": 1, "a": 2, "b": 3}

    def test_tie_broken_lexicographically(self):
        records = [rec(0, 0, code="b a b a")]
        vocab = build_vocab(records, "code", 10)
        assert vocab.token_to_id["a"] == 2
        assert vocab.token_to_id["b"] == 3

    def test_truncation(self):
        records = [rec(0, 0, code="a a b c")]
        vocab = build_vocab(records, "code", 3)
        assert vocab.size == 3
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id

    def test_min_size(self):
        with pytest.raises(ValueError):
            build_vocab([rec(0, 0)], "code", 2)


class TestEncode:
    def test_unknown_maps_to_zero(self):
        vocab = build_vocab([rec(0, 0, code="a")], "code", 10)
        seq = encode(["a", "zzz"], vocab, 10)
        assert seq.tokens == [vocab.token_to_id["a"], UNK_ID]

    def test_truncation(self):
        vocab = build_vocab([rec(0, 0, code="a")], "code", 10)
        seq = encode(["a"] * 5, vocab, 3)
        assert len(seq.tokens) == 3

    def test_empty_input(self):
        vocab = build_vocab([rec(0, 0, code="a")], "code", 10)
        assert encode([], vocab, 3).tokens == [UNK_ID]

    def test_never_exceeds_vocab_size(self):
        vocab = build_vocab([rec(0, 0, code="a b c d e")], "code", 5)
        seq = encode(["a", "b", "c", "d", "e", "zz"], vocab, 10)
        assert all(t < vocab.size for t in seq.tokens)


class TestStats:
    def test_hand_line_count(self):
        records = [FunctionRecord(id="x", code="int f(){\n\nreturn 0;}",
                                  label=0)]
        stats = dataset_stats(records)
        assert stats.avg_loc == 3
        assert stats.avg_nloc == 2
        assert stats.ratio == "1.00:0"

    def test_balanced_ratio(self):
        stats = dataset_stats([rec(0, 0), rec(1, 1)])
        assert stats.ratio == "1.00:1"

    def test_imbalanced_ratio_format(self):
        # format reference from published statistics: 1.19:1
        records = [rec(i, 0) for i in range(119)] + \
            [rec(100 + i, 1) for i in range(100)]
        assert dataset_stats(records).ratio == "1.19:1"

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            dataset_stats([])

    def test_averages_match_brute_force(self):
        rng = np.random.default_rng(0)
        records = [rec(i, int(rng.integers(0, 2)),
                       code="\n".join(["x = 1 ;"] * int(rng.integers(1, 6))))
                   for i in range(20)]
        stats = dataset_stats(records)
        locs = [r.code.count("\n") + 1 for r in records]
        assert abs(stats.avg_loc - sum(locs) / len(locs)) < 1e-9
        toks = [len(tokenize(r.code, "code")) for r in records]
        assert abs(stats.avg_tokens - sum(toks) / len(toks)) < 1e-9


class TestSplit:
    def test_exhaustive_partition_10(self):
        records = [rec(i, i % 2) for i in range(10)]
        train, val, test = stratified_split(records, [0.8, 0.1, 0.1], 0)
        assert (len(train), len(val), len(test)) == (8, 1, 1)
        labels = lambda part: sorted(r.label for r in part)
        assert labels(train) == [0] * 4 + [1] * 4
        all_ids = sorted(r.id for r in train + val + test)
        assert all_ids == sorted(r.id for r in records)

    def test_deterministic(self):
        records = [rec(i, i % 2) for i in range(20)]
        a = stratified_split(records, [0.8, 0.1, 0.1], 42)
        b = stratified_split(records, [0.8, 0.1, 0.1], 42)
        assert [[r.id for r in part] for part in a] == \
            [[r.id for r in part] for part in b]

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            stratified_split([rec(0, 0)], [0.7, 0.1, 0.1], 0)

    def test_per_label_proportions_within_one(self):
        records = [rec(i, 0) for i in range(50)] + \
            [rec(100 + i, 1) for i in range(30)]
        train, val, test = stratified_split(records, [0.6, 0.2, 0.2], 5)
        for part, frac in ((train, 0.6), (val, 0.2), (test, 0.2)):
            for label, total in ((0, 50), (1, 30)):
                got = sum(1 for r in part if r.label == label)
                assert abs(got - frac * total) <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(6, 60), st.integers(0, 1000))
    def test_partition_property(self, n, seed):
        records = [rec(i, i % 2) for i in range(n)]
        parts = stratified_split(records, [0.5, 0.25, 0.25], seed)
        ids = [r.id for part in parts for r in part]
        assert sorted(ids) == sorted(r.id for r in records)
        assert len(set(ids)) == n
