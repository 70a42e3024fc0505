"""Comment generation: a deterministic offline stub, plus a three-turn
generate / review / revise client for a chat-completions endpoint."""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Optional

import requests

from .data import tokenize

HARD_CONSTRAINTS = """Hard constraints:
- Output exactly ONE sentence in English.
- Describe ONLY what is explicitly shown in the code.
- Do NOT claim input validation, error handling, bounds checks, permissions, or safety guarantees unless the code clearly shows them.
- Avoid speculative words such as 'ensure/ensures/ensuring', 'handle(s) errors', 'validate(s)', 'sanitize(s)', 'filter(s)', 'guarantee(s)' unless explicitly present.
- Do NOT mention security or vulnerabilities (this is the normal setting)."""

SYSTEM_MESSAGE = "You are an expert code summarization assistant.\n\n" + HARD_CONSTRAINTS

DRAFT_TEMPLATE = """Please generate a short one-sentence comment describing the core functionality of the following function:
<code>
{code}
</code>

Output ONLY the sentence."""

REVIEW_PROMPT = """Review your previous answer and list problems.

Check specifically for:
- Any speculation beyond the code (e.g., 'ensures', 'handles errors', 'validates', 'guarantees').
- Any claims of checks that are not explicitly shown (input validation, bounds checks, error handling, permissions).
- Missing core behavior (main operations, key calls, main data flow).

Output ONLY short bullet points. Do NOT revise yet."""

REVISE_PROMPT = """Based on the problems you found, improve your answer.

Requirements:
- Output exactly ONE sentence in English.
- Describe ONLY what is explicitly shown in the code.
- Remove any speculative or non-evidenced claims.
- Do NOT mention security or vulnerabilities.

Output ONLY the final sentence."""

FORBIDDEN_WORDS = ("security", "vulnerable", "vulnerability")

TEMPERATURE = 0.0
MAX_TOKENS = 128
AUTH_ENV = "COMMENT_API_TOKEN"  # holds the endpoint's bearer token, if any
# the client errors that a later attempt may cure: timeout, rate limit
RETRYABLE_4XX = (408, 429)
# the longest wait a Retry-After header may ask for, in seconds
RETRY_AFTER_MAX_S = 60
# Records in flight at once in remote mode; the client spends nearly all
# its time waiting on the endpoint. More workers crowd more retries into
# the same failing stretch of a flaky endpoint: against one failing every
# 10th request, 8 let records exhaust their retries where 4 did not.
REMOTE_WORKERS = 4


class CommentError(RuntimeError):
    pass


@dataclass
class ProviderConfig:
    mode: str = "stub"  # "stub" | "remote"
    endpoint: Optional[str] = None
    model: Optional[str] = None
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 1.0

    def __post_init__(self):
        if self.mode not in ("stub", "remote"):
            raise ValueError(f"unknown provider mode {self.mode!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout {self.timeout} must be finite and "
                             "positive")
        if self.mode == "remote" and (not self.endpoint or not self.model):
            raise ValueError("remote mode requires endpoint and model")


@dataclass
class CritiqueTranscript:
    draft: str
    review: list
    final: str


def _first_sentence(text):
    return " ".join(text.split()).partition(".")[0] + "."


def generate_comment_stub(record):
    """Deterministic template comment; never mentions security vocabulary."""
    tokens = tokenize(record.code, "code")
    name = "anonymous"
    for i, tok in enumerate(tokens):
        if tok == "(" and i > 0:
            name = tokens[i - 1]
            break
    if any(word in name.lower() for word in FORBIDDEN_WORDS):
        name = "anonymous"
    identifiers = {t for t in tokens if t.isalpha()}
    return (f"Defines function {name} operating on "
            f"{len(identifiers)} identifier tokens.")


def _reply_content(resp):
    """The assistant text of a 200 response, which must have the shape
    {"choices": [{"message": {"content": str}}]}."""
    try:
        content = resp.json()["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError):
        content = None
    if not isinstance(content, str):
        raise CommentError(f"chat endpoint returned a malformed body: "
                           f"{resp.text[:200]!r}")
    return content


def _retry_after_s(resp):
    """The whole seconds that `resp`'s Retry-After header asks for, at most
    RETRY_AFTER_MAX_S; 0 when it is absent or has any other form, such as
    an HTTP date."""
    value = resp.headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdecimal()):
        return 0
    return min(int(value), RETRY_AFTER_MAX_S)


def _post_chat(config, messages):
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(AUTH_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    body = {
        "model": config.model,
        "messages": messages,
        "temperature": TEMPERATURE,
        "max_tokens": MAX_TOKENS,
    }
    last_status = None
    for attempt in range(config.max_retries + 1):
        delay = config.backoff_base * (2 ** attempt)
        try:
            resp = requests.post(config.endpoint, json=body, headers=headers,
                                 timeout=config.timeout)
        except requests.RequestException:
            last_status = None
        else:
            last_status = resp.status_code
            if last_status == 200:
                return _reply_content(resp)
            if 400 <= last_status < 500 and last_status not in RETRYABLE_4XX:
                raise CommentError(
                    f"chat endpoint rejected the request "
                    f"(HTTP status: {last_status})")
            if last_status in RETRYABLE_4XX or last_status >= 500:
                delay = max(delay, _retry_after_s(resp))
        if attempt < config.max_retries:
            time.sleep(delay)
    raise CommentError(
        f"chat endpoint failed after {config.max_retries + 1} attempts "
        f"(last HTTP status: {last_status})")


def generate_comment_llm(record, config):
    """Three-turn critique protocol: draft, self-review, one-sentence final."""
    if config.mode != "remote":
        raise CommentError("generate_comment_llm requires remote mode")
    messages = [{"role": "system", "content": SYSTEM_MESSAGE},
                {"role": "user", "content": DRAFT_TEMPLATE.format(code=record.code)}]
    draft = _post_chat(config, messages)
    messages.append({"role": "assistant", "content": draft})
    messages.append({"role": "user", "content": REVIEW_PROMPT})
    review = _post_chat(config, messages)
    messages.append({"role": "assistant", "content": review})
    messages.append({"role": "user", "content": REVISE_PROMPT})
    final = _post_chat(config, messages)
    final = _first_sentence(final)
    if not final.strip("."):
        raise CommentError("empty revision")
    bullets = [ln.lstrip("- ").strip() for ln in review.splitlines()
               if ln.strip()]
    return CritiqueTranscript(draft=draft, review=bullets, final=final)


def _comment_or_error(rec, config):
    """`rec`'s generated comment, or the CommentError that stopped it."""
    try:
        if config.mode == "stub":
            return generate_comment_stub(rec)
        return generate_comment_llm(rec, config).final
    except CommentError as exc:
        return exc


def attach_comments(records, config):
    """Fill missing comments via the configured provider; pre-commented
    records pass through unchanged.

    Remote mode keeps up to REMOTE_WORKERS records in flight; the stub is
    CPU-bound and runs in the calling thread. The output and the errors
    keep the input order either way."""
    todo = [i for i, rec in enumerate(records) if rec.comment is None]
    pending = [records[i] for i in todo]
    if config.mode == "stub":
        results = [_comment_or_error(rec, config) for rec in pending]
    else:
        pool = ThreadPoolExecutor(max_workers=REMOTE_WORKERS)
        try:
            results = list(pool.map(_comment_or_error, pending,
                                    repeat(config)))
        finally:
            # an interrupt or a worker's bug starts no queued record
            pool.shutdown(cancel_futures=True)
    out = list(records)
    errors = []
    for i, result in zip(todo, results):
        if isinstance(result, CommentError):
            errors.append((records[i].id, str(result)))
        else:
            out[i] = replace(records[i], comment=result)
    if errors and len(errors) == len(todo):
        detail = "; ".join(f"{rid}: {msg}" for rid, msg in errors[:3])
        raise CommentError(f"all comment generations failed ({detail})")
    return out, errors
