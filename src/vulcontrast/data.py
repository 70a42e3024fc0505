"""Dataset ingestion, tokenization, vocabularies, statistics and splits."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

UNK_ID = 0
PAD_ID = 1
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"

_CWE_RE = re.compile(r"^CWE-\d+$")
_CODE_PUNCT = set('(){}[];,.*&=<>!+-/%"\'\\')
# one punctuation character, or a run of anything but punctuation and
# whitespace (the whitespace of `str.split`)
_CODE_TOKEN_RE = re.compile(
    r"[{0}]|[^{0}\s]+".format(re.escape("".join(sorted(_CODE_PUNCT)))))
_TEXT_TRAIL = set(".,;:")


class DatasetError(ValueError):
    pass


def seeded_rng(seed):
    """`np.random.default_rng(seed)`, raising DatasetError for a bad seed."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"seed {seed!r} is not usable: {exc}") from None


@dataclass
class FunctionRecord:
    id: str
    code: str
    label: int
    comment: Optional[str] = None
    cwe: Optional[list] = None
    project: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise DatasetError(f"record id {self.id!r} must be a string")
        if not isinstance(self.code, str) or not self.code:
            raise DatasetError(
                f"record {self.id!r}: code must be a non-empty string")
        if type(self.label) is not int or self.label not in (0, 1):
            raise DatasetError(
                f"record {self.id!r}: label must be the integer 0 or 1")
        for name in ("comment", "project"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise DatasetError(
                    f"record {self.id!r}: {name} must be a string or null")
        if self.cwe is not None and not (
                isinstance(self.cwe, list)
                and all(isinstance(t, str) and _CWE_RE.match(t)
                        for t in self.cwe)):
            raise DatasetError(f"record {self.id!r}: cwe must be a list of "
                               f"CWE-<n> identifiers, got {self.cwe!r}")

    def to_json_obj(self):
        obj = {"id": self.id, "code": self.code, "label": self.label}
        if self.comment is not None:
            obj["comment"] = self.comment
        if self.cwe is not None:
            obj["cwe"] = list(self.cwe)
        if self.project is not None:
            obj["project"] = self.project
        return obj


@dataclass
class TokenSequence:
    tokens: list
    modality: str  # "code" | "text"


@dataclass
class Vocabulary:
    token_to_id: dict
    modality: str

    @property
    def size(self):
        return len(self.token_to_id)

    def id_of(self, token):
        return self.token_to_id.get(token, UNK_ID)


@dataclass
class DatasetStats:
    function_count: int
    avg_loc: float
    avg_nloc: float
    avg_tokens: float
    label_counts: dict
    ratio: str


def read_lines(path):
    """The lines of the UTF-8 text file at `path`; DatasetError naming the
    file if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return list(fh)
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path} is not UTF-8 text: {exc}") from None


def load_jsonl(path):
    records = []
    line_of_id = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: malformed JSON on line {lineno}: {exc}")
        if not isinstance(obj, dict) or "code" not in obj or "label" not in obj:
            raise DatasetError(
                f"{path}: line {lineno} must be an object with code and label")
        try:
            records.append(FunctionRecord(
                id=obj.get("id", f"line-{lineno}"),
                code=obj["code"],
                label=obj["label"],
                comment=obj.get("comment"),
                cwe=obj.get("cwe"),
                project=obj.get("project"),
            ))
        except DatasetError as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}")
        rid = records[-1].id
        if rid in line_of_id:
            raise DatasetError(
                f"{path}: duplicate record id {rid!r} on lines "
                f"{line_of_id[rid]} and {lineno}")
        line_of_id[rid] = lineno
    return records


def save_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_obj(), sort_keys=True) + "\n")


def tokenize(text, modality):
    """Split text into tokens. Code splits punctuation into single-character
    tokens; text splits trailing sentence punctuation off words."""
    if modality == "code":
        out = _CODE_TOKEN_RE.findall(text)
    elif modality == "text":
        out = []
        for chunk in text.split():
            tail = []
            while chunk and chunk[-1] in _TEXT_TRAIL:
                tail.append(chunk[-1])
                chunk = chunk[:-1]
            if chunk:
                out.append(chunk)
            out.extend(reversed(tail))
    else:
        raise ValueError(f"unknown modality {modality!r}")
    if not out:
        return [UNK_TOKEN]
    return out


def build_vocab(records, modality, max_size):
    if max_size < 3:
        raise ValueError("build_vocab: max_size must be >= 3")
    counts = {}
    for rec in records:
        source = rec.code if modality == "code" else (rec.comment or "")
        for tok in tokenize(source, modality):
            counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    mapping = {UNK_TOKEN: UNK_ID, PAD_TOKEN: PAD_ID}
    for tok, _ in ordered:
        if len(mapping) >= max_size:
            break
        if tok not in mapping:
            mapping[tok] = len(mapping)
    return Vocabulary(token_to_id=mapping, modality=modality)


def encode(tokens, vocab, max_input_length):
    if max_input_length < 1:
        raise ValueError("encode: max_input_length must be >= 1")
    ids = [vocab.id_of(t) for t in tokens[:max_input_length]]
    if not ids:
        ids = [UNK_ID]
    return TokenSequence(tokens=ids, modality=vocab.modality)


def _format_ratio(n_neg, n_pos):
    denom = n_pos if n_pos > 0 else n_neg
    left = n_neg / denom
    right = n_pos / denom
    return f"{left:.2f}:{right:g}"


def dataset_stats(records):
    if not records:
        raise DatasetError("dataset_stats: empty record list")
    locs, nlocs, ntoks = [], [], []
    label_counts = {0: 0, 1: 0}
    for rec in records:
        lines = rec.code.split("\n")
        locs.append(len(lines))
        nlocs.append(sum(1 for ln in lines if ln.strip()))
        ntoks.append(len(tokenize(rec.code, "code")))
        label_counts[rec.label] += 1
    return DatasetStats(
        function_count=len(records),
        avg_loc=float(np.mean(locs)),
        avg_nloc=float(np.mean(nlocs)),
        avg_tokens=float(np.mean(ntoks)),
        label_counts={"0": label_counts[0], "1": label_counts[1]},
        ratio=_format_ratio(label_counts[0], label_counts[1]),
    )


def _overall_targets(n, fractions):
    raw = [f * n for f in fractions]
    base = [int(np.floor(r)) for r in raw]
    leftover = n - sum(base)
    order = sorted(range(len(fractions)),
                   key=lambda k: (-(raw[k] - base[k]), k))
    for k in order[:leftover]:
        base[k] += 1
    return base


def stratified_split(records, fractions, seed):
    if len(fractions) != 3:
        raise DatasetError(f"fractions {fractions}: exactly three required")
    if any(f <= 0 for f in fractions):
        raise DatasetError(f"fractions {fractions}: each must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DatasetError(f"fractions {fractions}: must sum to 1")

    n = len(records)
    targets = _overall_targets(n, fractions)
    if n > 0 and any(t == 0 for t in targets):
        raise DatasetError(
            f"fractions {fractions}: a split of {n} records would be empty")

    rng = seeded_rng(seed)
    by_label = {0: [], 1: []}
    for rec in records:
        by_label[rec.label].append(rec)

    splits = [[], [], []]
    capacity = list(targets)
    for label in (0, 1):
        group = by_label[label]
        if not group:
            continue
        perm = rng.permutation(len(group))
        group = [group[i] for i in perm]
        raw = [f * len(group) for f in fractions]
        base = [int(np.floor(r)) for r in raw]
        leftover = len(group) - sum(base)
        # hand leftovers to splits with largest fractional remainder that
        # still have overall capacity
        order = sorted(range(3), key=lambda k: (-(raw[k] - base[k]), k))
        quota = list(base)
        for _ in range(leftover):
            for k in order:
                if capacity[k] - len(splits[k]) - quota[k] > 0:
                    quota[k] += 1
                    break
            else:
                quota[order[0]] += 1
        pos = 0
        for k in range(3):
            splits[k].extend(group[pos:pos + quota[k]])
            pos += quota[k]
    return tuple(splits)
