"""Tests of the benchmark itself: its checks fire on broken outputs, the
trace accounts for all traced time, and the seed drives the inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import gc
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from vulcontrast import autodiff as ad  # noqa: E402
from vulcontrast import data, evaluation, training  # noqa: E402
from vulcontrast.losses import LossBreakdown  # noqa: E402
from vulcontrast.model import DualEncoderModel, EncoderConfig  # noqa: E402

from perfbench import mock_chat, tracer, workloads  # noqa: E402


# ----------------------------------------------------------------- tracer

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_times_partition_the_root_span():
    clock = FakeClock()
    t = tracer.Tracer(clock)
    with t.span("root"):
        clock.advance(1)
        with t.span("a"):
            clock.advance(2)
            t.call_aggregated("prim", clock.advance, 3)
            with t.span("b"):
                clock.advance(4)
        clock.advance(5)
    calls, selfs = t.self_times()
    assert dict(selfs) == {"root": 6, "a": 2, "b": 4, "prim": 3}
    assert dict(calls) == {"root": 1, "a": 1, "b": 1, "prim": 1}
    assert t.root_wall() == 15


def _small_model(vocab_size, seed=0):
    cfg = EncoderConfig(vocab_size=vocab_size, embed_dim=8, num_blocks=1,
                        num_heads=2, ff_dim=16, max_input_length=256,
                        proj_dim=4)
    return DualEncoderModel(cfg, EncoderConfig(vocab_size=4, embed_dim=8,
                                               num_blocks=1, num_heads=2,
                                               ff_dim=16, proj_dim=4),
                            seed=seed)


def test_traced_self_times_add_up_to_wall_minus_residual():
    corpus = workloads.infer_corpus(0)[:6]
    vocab = data.build_vocab(corpus, "code", 2048)
    model = _small_model(vocab.size)
    t = tracer.Tracer()
    with tracer.instrument(t), t.span("root"):
        evaluation.predict(model, corpus, vocab, batch_size=4)
        p = ad.parameter(np.ones((2, 3)), "p")
        ad.backward(ad.sum_all(ad.gelu(ad.matmul(p, ad.transpose(p)))))
        gc.collect()
    calls, selfs = t.self_times()
    wall = t.root_wall()
    residual = selfs["root"]
    layers = sum(v for k, v in selfs.items() if k != "root")
    assert layers + residual == pytest.approx(wall, abs=1e-9)
    assert 0 <= residual < wall
    assert all(v >= 0 for v in selfs.values())
    assert calls["autodiff.matmul.bwd"] == 1
    assert calls["runtime.gc"] >= 1
    assert t.counts["predict.functions"] == 6
    # the originals are back after the block
    assert evaluation.predict.__module__ == "vulcontrast.evaluation"
    assert ad.matmul.__module__ == "vulcontrast.autodiff"
    assert training.AdamOptimizer.step.__qualname__ == "AdamOptimizer.step"


def test_percentile_needs_ten_samples_above_and_counts_failures():
    assert workloads.percentile(list(range(1, 101)), 90) == (90, 10)
    with pytest.raises(ValueError):
        workloads.percentile(list(range(99)), 90)
    value, _ = workloads.percentile([1.0] * 80 + [math.inf] * 20, 90)
    assert value == math.inf


# ----------------------------------------------------------------- inputs

def test_workload_seed_drives_the_inputs():
    a, b = workloads.train_setup(0), workloads.train_setup(1)
    assert [r.code for r in a.train] == \
        [r.code for r in workloads.train_setup(0).train]
    assert [r.code for r in a.train] != [r.code for r in b.train]

    c0, c1 = workloads.infer_corpus(0), workloads.infer_corpus(1)
    assert [r.code for r in c0] == [r.code for r in workloads.infer_corpus(0)]
    assert [r.code for r in c0] != [r.code for r in c1]
    assert len({r.code for r in c0}) == len(c0)

    k0, k1 = workloads.comment_chunk(0, 0), workloads.comment_chunk(1, 0)
    assert [r.code for r in k0] != [r.code for r in k1]
    chunks = [workloads.comment_chunk(0, k) for k in range(3)]
    codes = [r.code for ch in chunks for r in ch]
    ids = [r.id for ch in chunks for r in ch]
    assert len(set(codes)) == len(codes) and len(set(ids)) == len(ids)


def test_infer_corpus_spans_short_to_truncated_lengths():
    lengths = [len(data.tokenize(r.code, "code"))
               for r in workloads.infer_corpus(3)]
    assert min(lengths) < 60
    assert max(lengths) > 256


# -------------------------------------------------------------- train-full

def _train_call(steps=6, epochs=3, invocations=None, loss=1.0, decay=0.8):
    per_epoch = steps // epochs
    logs = []
    for e in range(epochs):
        x = loss * decay ** e
        bd = LossBreakdown(x, x, x, x, x)
        logs.append(training.EpochLog(e, [(e * per_epoch + i + 1, bd, 14.0)
                                          for i in range(per_epoch)],
                                      {"f1": 1.0}))
    model = type("M", (), {"text_invocations": 2 * steps
                           if invocations is None else invocations})()
    opt = type("O", (), {"step_count": steps})()
    return {"logs": logs, "stamps": list(range(steps)), "model": model,
            "optimizer": opt, "result": None, "error": None, "wall": 1.0,
            "epoch_ends": [per_epoch * (e + 1) for e in range(epochs)]}


def _train_problems(call, steps_per_epoch=2, full_epochs=10, state=None):
    m = workloads.Measurement()
    workloads._check_train_call(m, call, state, steps_per_epoch, full_epochs)
    return m.problems


def test_train_checks_pass_on_a_sound_run():
    assert _train_problems(_train_call()) == []


@pytest.mark.parametrize("broken,needle", [
    (dict(loss=math.nan), "non-finite loss"),
    (dict(invocations=0), "text encoder invoked 0 times"),
])
def test_train_checks_fire(broken, needle):
    problems = _train_problems(_train_call(**broken))
    assert any(needle in p for p in problems), problems


def test_train_learning_check_fires_when_the_loss_stays_flat():
    problems = _train_problems(_train_call(decay=1.0))
    assert any("mean total loss fell" in p for p in problems), problems
    # fewer epochs than the shortest measured call are not judged
    assert _train_problems(_train_call(steps=4, epochs=2, decay=1.0)) == []


def test_train_step_count_check_fires():
    problems = _train_problems(_train_call(), steps_per_epoch=3)
    assert any("optimizer steps" in p for p in problems), problems


def test_held_out_f1_check_fires_at_criterion_length():
    state = workloads.train_setup(0)
    vocab = data.build_vocab(state.train, "code", 2048)
    call = _train_call(steps=20, epochs=10)
    call["result"] = type("R", (), {"model": _small_model(vocab.size),
                                    "code_vocab": vocab})()
    problems = _train_problems(call, steps_per_epoch=2, state=state)
    assert any("held-out F1" in p for p in problems), problems


# ------------------------------------------------------------- infer-mixed

def _infer_state(model_cls=DualEncoderModel):
    corpus = workloads.infer_corpus(0)[:8]
    vocab = data.build_vocab(corpus, "code", 2048)
    model = _small_model(vocab.size)
    model.__class__ = model_cls
    return workloads.InferState(corpus, vocab, model, 256)


def _infer_run(state):
    return workloads.infer_measure(state, None, plan=1, strict=False)


def test_infer_checks_pass_on_a_sound_model():
    m = _infer_run(_infer_state())
    assert m.problems == [] and m.failed == 0 and m.attempted == 3


class TextPeekingModel(DualEncoderModel):
    def classify(self, projected):
        self.encode_batch([data.TokenSequence([2, 3], "text")], "text")
        return super().classify(projected)


class SaturatedModel(DualEncoderModel):
    def classify(self, projected):
        logits, probs = super().classify(projected)
        probs.data[:] = 1.0
        return logits, probs


class BatchDependentModel(DualEncoderModel):
    def classify(self, projected):
        logits, probs = super().classify(projected)
        probs.data[:] = probs.data + 1e-3 * projected.data.shape[0]
        return logits, probs


@pytest.mark.parametrize("model_cls,needle", [
    (TextPeekingModel, "text encoder invoked"),
    (SaturatedModel, "outside (0, 1)"),
    (BatchDependentModel, "disagrees"),
])
def test_infer_checks_fire(model_cls, needle):
    m = _infer_run(_infer_state(model_cls))
    assert any(needle in p for p in m.problems), m.problems


# ----------------------------------------------------------- comment-remote

class InProcessServer:
    def __init__(self, **kwargs):
        self.server = mock_chat.MockChatServer(**kwargs)
        self.url = self.server.url
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def stats(self):
        return self.server.stats()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


def _comment_run(server_kwargs, tamper=None):
    server = InProcessServer(**server_kwargs)
    try:
        state = workloads.CommentState(
            seed=0, server=server, config=workloads.ProviderConfig(
                mode="remote", endpoint=server.url, model="m", timeout=5.0,
                max_retries=3, backoff_base=0.0))
        if tamper:
            tamper(server)
        return workloads.comment_measure(state, None, plan=1, strict=False)
    finally:
        server.close()


def test_comment_checks_pass_on_a_sound_mock():
    m = _comment_run({"fail_every": mock_chat.FAIL_EVERY})
    assert m.problems == [] and m.failed == 0
    assert m.attempted == workloads.COMMENT_CHUNK
    assert m.details["injected_failures"] > 0


def test_comment_check_fires_on_a_wrong_sentence():
    m = _comment_run({"wrong_final": True})
    assert m.failed == workloads.COMMENT_CHUNK
    assert any("Function wrong" in p for p in m.problems), m.problems


def test_comment_check_fires_on_unexpected_request_count():
    def tamper(server):
        original = server.stats
        calls = []

        def stats():
            calls.append(1)
            s = original()
            s["chat_requests"] += len(calls) - 1
            return s
        server.stats = stats
    m = _comment_run({}, tamper)
    assert any("server saw" in p for p in m.problems), m.problems


def test_comment_check_fires_on_wrong_failure_injection():
    m = _comment_run({"fail_every": 5})
    assert any("injected" in p for p in m.problems), m.problems


# --------------------------------------------------------------- command

def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-mixed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
