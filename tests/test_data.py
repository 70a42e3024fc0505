import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulcontrast.data import (_CODE_PUNCT, DatasetError, FunctionRecord,
                              build_vocab, dataset_stats, encode, load_jsonl,
                              save_jsonl, stratified_split, tokenize, UNK_ID,
                              PAD_ID)
from vulcontrast.fixtures import generate_fixture


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

    @pytest.mark.parametrize("bad", [
        '{"code":123,"label":1}',
        '{"code":"y","label":1,"cwe":7}',
        '{"code":"y","label":1,"comment":["x"]}',
        '{"id":["a"],"code":"y","label":1}',
        '{"id":7,"code":"y","label":1}',
        '{"code":"y","label":true}',
        '{"code":"y","label":1.0}',
    ])
    def test_wrongly_typed_field_names_line(self, tmp_path, bad):
        path = tmp_path / "d.jsonl"
        path.write_text('{"code":"x","label":0}\n' + bad + '\n')
        with pytest.raises(DatasetError, match="line 2"):
            load_jsonl(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"code":"x","label":0}\nnot json\n')
        with pytest.raises(DatasetError, match="line 2"):
            load_jsonl(path)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"code":"x","label":0,"comment":"\xff"}\n')
        with pytest.raises(DatasetError, match=f"{path} is not UTF-8"):
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

    @settings(max_examples=300, deadline=None)
    @given(st.text(), st.sampled_from(["code", "text"]))
    def test_deterministic_and_keeps_every_non_space_character(self, text,
                                                               modality):
        tokens = tokenize(text, modality)
        assert tokenize(text, modality) == tokens
        if text.split():
            assert "".join(tokens) == "".join(text.split())
            assert all(tokens)
        else:
            assert tokens == ["<unk>"]


def loop_tokenize_code(text):
    """The per-character code tokenizer that the one regex replaced."""
    out = []
    for chunk in text.split():
        buf = []
        for ch in chunk:
            if ch in _CODE_PUNCT:
                if buf:
                    out.append("".join(buf))
                    buf = []
                out.append(ch)
            else:
                buf.append(ch)
        if buf:
            out.append("".join(buf))
    return out or ["<unk>"]


# every punctuation character, ASCII and Unicode whitespace (str.split's
# set, which includes the information separators), a few letters
CODE_ALPHABET = st.sampled_from(
    sorted(_CODE_PUNCT) + list(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000")
    + list("ab_0é字"))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(CODE_ALPHABET), st.text(), st.sampled_from(
    ["", " ", "\x0b\x1c\xa0\u3000", "\t\n "])))
def test_code_tokenizer_equals_the_per_character_loop(text):
    assert tokenize(text, "code") == loop_tokenize_code(text)


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(min_size=1), min_size=1, max_size=5),
           st.integers(3, 12), st.integers(1, 50), st.data())
    def test_length_and_id_range(self, codes, max_size, max_len, data):
        records = [rec(i, 0, code=c) for i, c in enumerate(codes)]
        vocab = build_vocab(records, "code", max_size)
        known = st.sampled_from(sorted(vocab.token_to_id))
        tokens = data.draw(st.lists(st.one_of(known, st.text(max_size=6)),
                                    max_size=60))
        ids = encode(tokens, vocab, max_len).tokens
        assert 1 <= len(ids) <= max_len
        assert all(0 <= t < vocab.size for t in ids)


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

    @pytest.mark.parametrize("n,fractions,seed,named", [
        (4, [0.5, 0.5], 0, "fractions [0.5, 0.5]"),
        (4, [0.9, 0.2, -0.1], 0, "fractions [0.9, 0.2, -0.1]"),
        (4, [0.5, 0.3, 0.3], 0, "fractions [0.5, 0.3, 0.3]"),
        (1, [0.8, 0.1, 0.1], 0, "split of 1 records would be empty"),
        (4, [0.5, 0.25, 0.25], -1, "seed -1")])
    def test_bad_input_raises_dataset_error_naming_it(self, n, fractions,
                                                       seed, named):
        records = [rec(i, i % 2) for i in range(n)]
        with pytest.raises(DatasetError, match=re.escape(named)):
            stratified_split(records, fractions, seed)

    def test_fixture_seed_rejected_naming_it(self):
        with pytest.raises(DatasetError, match="seed -1"):
            generate_fixture(n=4, seed=-1)

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


class TestFixture:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 10 ** 6))
    def test_label_is_one_exactly_when_execraw_occurs(self, n, seed):
        assert all(r.label == ("execraw" in tokenize(r.code, "code"))
                   for r in generate_fixture(n=n, seed=seed))

    def test_noise_may_split_the_planted_pattern(self):
        positives = [r for r in generate_fixture() if r.label == 1]
        whole = [r for r in positives if "execraw ( userbuf" in r.code]
        assert (len(positives), len(whole)) == (200, 67)
