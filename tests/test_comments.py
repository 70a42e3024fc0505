import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from vulcontrast import comments
from vulcontrast.comments import (CommentError, CritiqueTranscript,
                                  HARD_CONSTRAINTS, REMOTE_WORKERS,
                                  RETRY_AFTER_MAX_S, ProviderConfig,
                                  attach_comments, generate_comment_llm,
                                  generate_comment_stub)
from vulcontrast.data import FunctionRecord

from mock_chat_server import MockChatServer

FACTORIAL = FunctionRecord(
    id="fact", label=0, code=(
        "def calculate_factorial(n):\n"
        "    if n == 0 or n == 1:\n"
        "        return 1\n"
        "    else:\n"
        "        return n * calculate_factorial(n - 1)"))


def remote_config(url, retries=0, backoff=0.01):
    return ProviderConfig(mode="remote", endpoint=url, model="test-model",
                          max_retries=retries, backoff_base=backoff,
                          timeout=5.0)


class TestStub:
    def test_template(self):
        rec = FunctionRecord(id="a", code="int add(int a){return a;}",
                             label=0)
        assert generate_comment_stub(rec) == \
            "Defines function add operating on 4 identifier tokens."

    def test_no_paren_falls_back_to_anonymous(self):
        rec = FunctionRecord(id="a", code="x = y + 1", label=0)
        assert "function anonymous" in generate_comment_stub(rec)

    def test_deterministic(self):
        rec = FunctionRecord(id="a", code="void go(int k){k++;}", label=0)
        assert generate_comment_stub(rec) == generate_comment_stub(rec)

    def test_one_sentence(self):
        out = generate_comment_stub(FACTORIAL)
        assert out.count(".") == 1 and out.endswith(".")
        assert "\n" not in out

    def test_forbidden_vocabulary_absent(self):
        for code in ["int f(){return 0;}", "void check_security(){}",
                     "int vulnerable_thing(char *p){return *p;}"]:
            out = generate_comment_stub(
                FunctionRecord(id="x", code=code, label=1)).lower()
            for word in ("security", "vulnerable", "vulnerability"):
                assert word not in out


def loop_first_sentence(text):
    """The per-character `_first_sentence` that `str.partition` replaced."""
    text = " ".join(text.split())
    for i, ch in enumerate(text):
        if ch == ".":
            return text[:i + 1]
    return text + "."


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(st.sampled_from(list("ab. \t\n\xa0"))), st.text(),
                 st.sampled_from(["", "no period here", "...", ".", " . ",
                                  " \t\n ", "One. Two.", "ends."])))
def test_first_sentence_equals_the_per_character_loop(text):
    assert comments._first_sentence(text) == loop_first_sentence(text)


class TestRemoteProtocol:
    RESPONSES = [
        "Computes the factorial of n recursively, returning 1 when n is 0 "
        "or 1.",
        "- No unsupported claims are made.\n"
        "- The recursive call and base cases are clearly described.",
        "Computes the factorial of n recursively with base cases for 0 "
        "and 1.",
    ]

    def test_three_turns_with_hard_constraints(self):
        with MockChatServer(self.RESPONSES) as server:
            out = generate_comment_llm(FACTORIAL, remote_config(server.url))
            assert len(server.requests) == 3
            system = server.requests[0]["body"]["messages"][0]
            assert system["role"] == "system"
            assert HARD_CONSTRAINTS in system["content"]
            # every turn carries the same system message and sampling
            for req in server.requests:
                assert HARD_CONSTRAINTS in \
                    req["body"]["messages"][0]["content"]
                assert req["body"]["temperature"] == 0.0
                assert req["body"]["max_tokens"] == 128
        assert isinstance(out, CritiqueTranscript)
        assert out.final == self.RESPONSES[2]
        assert out.draft == self.RESPONSES[0]
        assert len(out.review) == 2

    def test_review_turn_requests_bullets_only(self):
        with MockChatServer(self.RESPONSES) as server:
            generate_comment_llm(FACTORIAL, remote_config(server.url))
            review_turn = server.requests[1]["body"]["messages"][-1]
            assert "Output ONLY short bullet points. Do NOT revise yet." \
                in review_turn["content"]

    def test_conversation_accumulates(self):
        with MockChatServer(self.RESPONSES) as server:
            generate_comment_llm(FACTORIAL, remote_config(server.url))
            final_messages = server.requests[2]["body"]["messages"]
            roles = [m["role"] for m in final_messages]
            assert roles == ["system", "user", "assistant", "user",
                             "assistant", "user"]

    def test_retries_on_500_then_succeeds(self):
        with MockChatServer(self.RESPONSES, fail_times=2) as server:
            out = generate_comment_llm(FACTORIAL,
                                       remote_config(server.url, retries=2))
            assert out.draft == self.RESPONSES[0]
            # 2 failures + 3 successful turns
            assert len(server.requests) == 5

    def test_persistent_500_raises_with_status(self):
        with MockChatServer(self.RESPONSES, fail_times=100) as server:
            with pytest.raises(CommentError, match=r"after 2 attempts "
                               r"\(last HTTP status: 500\)"):
                generate_comment_llm(FACTORIAL,
                                     remote_config(server.url, retries=1))

    @pytest.mark.parametrize("status", [408, 429])
    def test_retryable_client_errors_are_retried(self, status):
        with MockChatServer(self.RESPONSES, fail_times=2,
                            fail_status=status) as server:
            out = generate_comment_llm(FACTORIAL,
                                       remote_config(server.url, retries=2))
            assert out.draft == self.RESPONSES[0]
            assert len(server.requests) == 5

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_other_client_errors_fail_at_once(self, status, monkeypatch):
        sleeps = []
        monkeypatch.setattr(comments.time, "sleep", sleeps.append)
        # a Retry-After on a request that is not retried is not waited
        with MockChatServer(self.RESPONSES, fail_times=1, fail_status=status,
                            fail_headers={"Retry-After": "5"}) as server:
            with pytest.raises(CommentError, match=rf"rejected the request "
                               rf"\(HTTP status: {status}\)"):
                generate_comment_llm(FACTORIAL,
                                     remote_config(server.url, retries=3))
            assert len(server.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status,retry_after,backoff,sleeps", [
        # a whole number of seconds above the backoff is waited out
        (429, "3", 0.01, [3, 3]),
        (503, "2", 0.01, [2, 2]),
        (408, " 1 ", 0.01, [1, 1]),
        # the backoff wins when it is the longer wait
        (429, "1", 1.5, [1.5, 3.0]),
        (500, "0", 0.01, [0.01, 0.02]),
        # a wait past the cap is cut to it
        (429, "86400", 0.01, [RETRY_AFTER_MAX_S] * 2),
        (503, "9" * 40, 0.01, [RETRY_AFTER_MAX_S] * 2),
        # any other form falls back to the backoff
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.01, [0.01, 0.02]),
        (503, "soon", 0.01, [0.01, 0.02]),
        (429, "-5", 0.01, [0.01, 0.02]),
        (429, "1.5", 0.01, [0.01, 0.02]),
        (429, "", 0.01, [0.01, 0.02]),
        (500, None, 0.01, [0.01, 0.02]),
    ])
    def test_retry_after_sets_the_wait(self, status, retry_after, backoff,
                                       sleeps, monkeypatch):
        waits = []
        monkeypatch.setattr(comments.time, "sleep", waits.append)
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        with MockChatServer(self.RESPONSES, fail_times=2, fail_status=status,
                            fail_headers=headers) as server:
            out = generate_comment_llm(
                FACTORIAL, remote_config(server.url, retries=2,
                                         backoff=backoff))
            assert len(server.requests) == 5
        assert out.draft == self.RESPONSES[0]
        assert waits == sleeps

    @pytest.mark.parametrize("body", [
        b'{"choices": []}', b"{}", b"[]", b"not json",
        b'{"choices": [{"message": null}]}',
        b'{"choices": [{"message": {"content": 7}}]}'])
    def test_malformed_200_body_raises_remote_error(self, body):
        with MockChatServer([], raw_body=body) as server:
            with pytest.raises(CommentError, match="malformed body"):
                generate_comment_llm(FACTORIAL,
                                     remote_config(server.url, retries=2))
            assert len(server.requests) == 1

    def test_multi_sentence_final_trimmed(self):
        responses = list(self.RESPONSES)
        responses[2] = ("Computes the factorial of n. It also does other "
                        "things. Really.")
        with MockChatServer(responses) as server:
            out = generate_comment_llm(FACTORIAL, remote_config(server.url))
        assert out.final == "Computes the factorial of n."

    def test_bearer_token_from_environment(self, monkeypatch):
        monkeypatch.setenv("COMMENT_API_TOKEN", "sekrit")
        with MockChatServer(self.RESPONSES) as server:
            generate_comment_llm(FACTORIAL, remote_config(server.url))
            auth = server.requests[0]["headers"].get("Authorization")
        assert auth == "Bearer sekrit"

    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError):
            ProviderConfig(mode="remote")

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"),
                                         float("inf")])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(ValueError, match=f"timeout {timeout}"):
            ProviderConfig(timeout=timeout)


class TestAttachComments:
    def records(self):
        return [FunctionRecord(id=f"r{i}", code=f"int f{i}(int a){{}}",
                               label=i % 2) for i in range(3)]

    def test_stub_fills_all(self):
        out, errors = attach_comments(self.records(), ProviderConfig())
        assert errors == []
        assert all(r.comment for r in out)

    def test_precommented_passthrough(self):
        records = [FunctionRecord(id="a", code="int f(){}", label=0,
                                  comment="Existing.")]
        out, errors = attach_comments(records, ProviderConfig())
        assert out[0].comment == "Existing."

    def test_idempotent_in_stub_mode(self):
        once, _ = attach_comments(self.records(), ProviderConfig())
        twice, _ = attach_comments(once, ProviderConfig())
        assert [r.comment for r in once] == [r.comment for r in twice]

    def test_remote_total_failure_raises(self):
        config = ProviderConfig(mode="remote",
                                endpoint="http://127.0.0.1:1/nope",
                                model="m", max_retries=0, backoff_base=0.01,
                                timeout=0.2)
        with pytest.raises(CommentError, match="all comment generations"):
            attach_comments(self.records(), config)

    def test_malformed_body_is_a_comment_error(self):
        with MockChatServer([], raw_body=b'{"choices": []}') as server:
            with pytest.raises(CommentError, match="r0: .*malformed"):
                attach_comments(self.records()[:1],
                                remote_config(server.url))

    def test_order_preserved(self):
        out, _ = attach_comments(self.records(), ProviderConfig())
        assert [r.id for r in out] == ["r0", "r1", "r2"]


class TestRemotePool:
    """Remote mode keeps up to REMOTE_WORKERS records in flight and still
    answers in input order."""

    MARKER = "REJECT_THIS_RECORD"

    def records(self, n, rejected=()):
        return [FunctionRecord(
            id=f"r{i}", label=i % 2,
            code=f"int f{i}(int a){{ {self.MARKER if i in rejected else ''} }}")
            for i in range(n)]

    def test_records_overlap_up_to_the_worker_count(self):
        with MockChatServer(["Does one thing."], delay_s=0.05) as server:
            out, errors = attach_comments(self.records(12),
                                          remote_config(server.url))
            peak = server.peak_in_flight
            assert len(server.requests) == 3 * 12
        assert errors == []
        assert [r.comment for r in out] == ["Does one thing."] * 12
        assert 1 < peak <= REMOTE_WORKERS

    def test_failed_records_keep_their_positions(self):
        rejected = (1, 4, 5, 9)
        records = self.records(12, rejected)
        with MockChatServer(["Does one thing."], delay_s=0.02,
                            reject_marker=self.MARKER) as server:
            out, errors = attach_comments(records, remote_config(server.url))
        assert [r.id for r in out] == [r.id for r in records]
        assert [r.comment is None for r in out] == \
            [i in rejected for i in range(12)]
        assert [rid for rid, _ in errors] == [f"r{i}" for i in rejected]
        assert all("HTTP status: 400" in msg for _, msg in errors)

    def test_stub_mode_stays_in_the_calling_thread(self, monkeypatch):
        threads = []
        stub = comments.generate_comment_stub

        def recording_stub(rec):
            threads.append(threading.get_ident())
            return stub(rec)

        monkeypatch.setattr(comments, "generate_comment_stub", recording_stub)
        out, errors = attach_comments(self.records(12), ProviderConfig())
        assert errors == [] and all(r.comment for r in out)
        assert threads == [threading.get_ident()] * 12

    def test_a_worker_bug_propagates_and_stops_queued_records(
            self, monkeypatch):
        started = []

        def buggy_llm(rec, config):
            started.append(rec.id)
            if rec.id == "r0":
                raise KeyError("a bug, not a CommentError")
            time.sleep(0.1)
            return CritiqueTranscript(draft="d", review=[], final="Fine.")

        monkeypatch.setattr(comments, "generate_comment_llm", buggy_llm)
        config = remote_config("http://127.0.0.1:1/never-contacted")
        with pytest.raises(KeyError, match="a bug"):
            attach_comments(self.records(40), config)
        assert 0 < len(started) < 40
