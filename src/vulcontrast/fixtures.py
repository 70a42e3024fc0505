"""Synthetic C-like function corpus with a planted unsafe-call pattern.

Labels are 1 exactly when the code contains the token ``execraw``. Each
positive has the pattern ``execraw ( userbuf`` planted in its body before
noise is inserted, so a noise token may fall between the pattern's tokens.
About 30% of body tokens are digit-bearing distractor noise so the surface
form varies per function.
"""

from __future__ import annotations

from .data import DatasetError, FunctionRecord, seeded_rng

UNSAFE_PATTERN = ("execraw", "(", "userbuf")
NOISE_FRAC = 0.3

_RETURN_TYPES = ["int", "void", "char", "long"]
_NAMES = ["copyblock", "parseheader", "readfield", "updatestate",
          "inittable", "scaninput", "writeentry", "packrecord"]
_CWES = ["CWE-787", "CWE-119", "CWE-416", "CWE-476", "CWE-703", "CWE-20"]


def _pick(rng, options):
    # one integers(0, len) draw, the draw the seeded corpora were made with
    return options[rng.integers(0, len(options))]


def _noise_token(rng):
    # digits keep noise out of the alphabetic-identifier count
    return "n" + "".join(map(str, rng.integers(0, 10, size=4)))


def _body(rng):
    # fixed identifier set so every function shares the same base
    # vocabulary; only literals and inserted noise vary
    return [
        "buf", "=", "src", "+", str(rng.integers(0, 16)), ";",
        "memset", "(", "buf", ")", ";",
        "if", "(", "len", "<", str(rng.integers(1, 64)), ")",
        "len", "=", "0", ";",
    ]


def _with_noise(tokens, rng):
    # insert noise so ~NOISE_FRAC of the output tokens are distractors
    out = []
    for tok in tokens:
        out.append(tok)
        if rng.random() < NOISE_FRAC / (1.0 - NOISE_FRAC):
            out.append(_noise_token(rng))
    return out


def generate_fixture(n=400, seed=13):
    """Balanced record set; positives carry one planted unsafe call and a
    CWE tag."""
    if n < 1:
        raise DatasetError(f"fixture count {n} must be at least 1")
    rng = seeded_rng(seed)
    records = []
    for i in range(n):
        label = int(i % 2)
        name = _pick(rng, _NAMES) + str(i)
        header = [_pick(rng, _RETURN_TYPES), name, "(", "char", "*",
                  "buf", ")", "{"]
        body = _body(rng)
        if label == 1:
            insert = list(UNSAFE_PATTERN) + [")", ";"]
            boundaries = [0] + [j + 1 for j, t in enumerate(body)
                                if t == ";"]
            at = boundaries[rng.integers(0, len(boundaries))]
            body = body[:at] + insert + body[at:]
        tokens = header + _with_noise(body, rng) + \
            ["return", "0", ";", "}"]
        code = " ".join(tokens)
        cwe = [_pick(rng, _CWES)] if label == 1 else None
        records.append(FunctionRecord(
            id=f"fx-{i:04d}", code=code, label=label, cwe=cwe,
            project="synthetic"))
    return records
