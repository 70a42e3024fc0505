"""The three benchmark workloads: inputs, timed loops and correctness checks.

Each workload has `setup(seed, workdir)`, which builds everything before
timing starts, and `measure(state, budget_s, plan=None, strict=True)`,
which runs closed loops from this one process until the budget is spent
(or exactly the work in `plan`, for the traced replica) and returns a
`Measurement`. Checks append to `Measurement.problems`; a non-empty list
makes the run incorrect.

Why these workloads:

* train-full is the criterion-6 pipeline with the full objective. It is
  the only workload that runs backward, Adam, clipping, augmentation, the
  text encoder and the InfoNCE losses, so training-side changes show here.
* infer-mixed is code-only `predict` over functions of mixed length (1 to
  7 fixture bodies joined, about 40 tokens to past the 256-token limit).
  It skips everything training-only, so it is the no-change side for
  those changes, while a batched or padded encoder pays for its padding
  here and long sequences make arithmetic count beside per-node overhead.
* comment-remote is the only workload that runs `comments`: three
  sequential HTTP calls per record against a loopback mock with a fixed
  service delay and injected HTTP 500s, so retries and connection set-up
  show. Every call gets functions it has not seen, so a cache cannot
  turn it into a replay.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from vulcontrast import comments, data, evaluation, model, training
from vulcontrast.comments import ProviderConfig
from vulcontrast.fixtures import generate_fixture

from . import mock_chat

CLOCK = time.perf_counter

# ------------------------------------------------------------ statistics


def percentile(samples, q):
    """Nearest-rank percentile with at least 10 samples above it.

    Failed operations are passed as `math.inf`, so they count as missing
    every latency percentile. Returns (value, samples above it).
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    above = n - rank
    if above < 10:
        raise ValueError(f"p{q} of {n} samples leaves {above} above it; "
                         "at least 10 are needed")
    return ordered[rank - 1], above


@dataclasses.dataclass
class Measurement:
    """What one measured loop produced.

    `metrics` holds the end-to-end metrics every workload reports under the
    same names (see `BENCHMARK.json`); `named` holds the workload's own
    metrics under their descriptive names, with sample counts.
    """
    metrics: dict = dataclasses.field(default_factory=dict)  # name: (v, unit)
    named: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    details: dict = dataclasses.field(default_factory=dict)
    plan: object = None
    wall_s: float = 0.0
    steps: int = 0

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    def report(self, name, value, unit, end_to_end=None, **counts):
        self.named[name] = dict(value=value, unit=unit, **counts)
        if end_to_end:
            self.metrics[end_to_end] = (value, unit)

    def report_percentiles(self, names, samples_s, end_to_end=False):
        """p50 and p90 in ms under `names`; also as `latency_p50_ms` and
        `latency_p90_ms` when `end_to_end`."""
        for q, name in zip((50, 90), names):
            try:
                value, above = percentile(samples_s, q)
            except ValueError as exc:
                self.problems.append(f"{name}: {exc}")
                value, above = math.inf, 0
            self.report(name, value * 1e3, "ms",
                        f"latency_p{q}_ms" if end_to_end else None,
                        samples=len(samples_s), above=above)


# -------------------------------------------------------------- train-full

TRAIN_FIXTURE_SIZE = 400
TRAIN_SPLIT = (0.8, 0.1, 0.1)
TRAIN_SPLIT_SEED = 0        # criterion 6
TRAIN_MODEL_SEED = 0        # criterion 6
TRAIN_MIN_EPOCHS = 3        # 3 x 39 step intervals >= 100 for p90
HELD_OUT_F1_MIN = 0.95      # criterion 6, full objective
# Least fall of the mean total loss from the first epoch to the last, in
# calls of at least 3 epochs. Over 3 epochs it fell by about 0.2 when
# training works, and by 0.01 when Adam never updated a parameter.
LOSS_DROP_MIN = 0.10


@dataclasses.dataclass
class TrainState:
    train: list
    validation: list
    test: list


def train_setup(seed, workdir=None):
    """The criterion-6 corpus; `--seed 13` reproduces it exactly."""
    records = generate_fixture(TRAIN_FIXTURE_SIZE, seed=seed)
    records, errors = comments.attach_comments(records, ProviderConfig())
    if errors:
        raise RuntimeError(f"stub comments failed: {errors[:3]}")
    train, val, test = data.stratified_split(records, list(TRAIN_SPLIT),
                                             seed=TRAIN_SPLIT_SEED)
    return TrainState(train, val, test)


class _StopTraining(Exception):
    pass


def _train_once(state, epochs, stop_after_epoch):
    """One `train()` call; returns a dict describing what happened.

    `stop_after_epoch(epoch_index, seconds_since_start)` is asked after
    each epoch but the last; True ends the call at that epoch boundary.
    The only instrumentation is a timestamp after each optimizer step.
    """
    out = {"result": None, "error": None, "stamps": [], "epoch_ends": [],
           "logs": [], "model": None, "optimizer": None}
    step_fn = training.AdamOptimizer.step
    model_cls = training.DualEncoderModel

    def timed_step(self):
        step_fn(self)
        out["stamps"].append(CLOCK())
        out["optimizer"] = self

    def capture_model(*args, **kwargs):
        out["model"] = model_cls(*args, **kwargs)
        return out["model"]

    def progress(epoch, log):
        out["epoch_ends"].append(len(out["stamps"]))
        out["logs"].append(log)
        if epoch + 1 < epochs and stop_after_epoch(epoch, CLOCK() - t0):
            raise _StopTraining

    config = training.TrainConfig(seed=TRAIN_MODEL_SEED, epochs=epochs)
    training.AdamOptimizer.step = timed_step
    training.DualEncoderModel = capture_model
    t0 = CLOCK()
    try:
        out["result"], _ = training.train(state.train, state.validation,
                                          config, progress=progress)
    except _StopTraining:
        pass
    except (training.TrainError, ArithmeticError, ValueError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        out["wall"] = CLOCK() - t0
        training.AdamOptimizer.step = step_fn
        training.DualEncoderModel = model_cls
    return out


def train_measure(state, budget_s, plan=None, strict=True):
    """Closed loop of `train()` calls with the criterion-6 config.

    A call ends at the first epoch boundary after which the next epoch
    would overrun the budget, or after its 10 configured epochs. `plan`
    is a list of epochs per call, replayed exactly.
    """
    m = Measurement()
    defaults = training.TrainConfig()
    steps_per_epoch = math.ceil(len(state.train) / defaults.batch_size)
    full_epochs = defaults.epochs
    min_epochs = TRAIN_MIN_EPOCHS if strict else 1
    start = CLOCK()

    def over_budget(epochs_done, per_epoch):
        return epochs_done >= min_epochs and \
            CLOCK() - start + per_epoch > budget_s

    calls = []
    while plan is None or len(calls) < len(plan):
        if plan is not None:
            epochs, stop = plan[len(calls)], (lambda epoch, t: False)
        else:
            done = sum(len(c["logs"]) for c in calls)
            if calls and over_budget(done,
                                     sum(c["wall"] for c in calls) / done):
                break
            epochs = full_epochs

            def stop(epoch, t, done=done):
                return over_budget(done + epoch + 1, t / (epoch + 1))
        calls.append(_train_once(state, epochs, stop))
        if calls[-1]["error"]:
            break
    m.wall_s = CLOCK() - start
    m.plan = [len(c["logs"]) for c in calls]

    intervals = []
    records = 0
    train_wall = 0.0
    for c in calls:
        epochs_run = len(c["logs"])
        steps = len(c["stamps"])
        m.steps += steps
        m.attempted += steps
        records += epochs_run * len(state.train)
        train_wall += c["wall"]
        if c["error"]:
            m.attempted += 1
            m.failed += 1
            m.problems.append(f"train() failed: {c['error']}")
            continue
        bounds = [0] + c["epoch_ends"]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            intervals.extend(np.diff(c["stamps"][lo:hi]).tolist())
        _check_train_call(m, c, state, steps_per_epoch, full_epochs)

    m.report("train_samples_per_s", records / train_wall, "records/s",
             "records_per_s")
    if strict:
        m.report_percentiles(("train_step_ms_p50", "train_step_ms_p90"),
                             intervals + [math.inf] * m.failed,
                             end_to_end=True)
    m.details.update(train_calls=len(calls), epochs=m.plan,
                     steps=m.steps, train_records=len(state.train))
    return m


def _check_train_call(m, c, state, steps_per_epoch, full_epochs):
    epochs_run = len(c["logs"])
    steps = len(c["stamps"])
    m.check(epochs_run >= 1, "train() completed no epoch")
    m.check(steps == epochs_run * steps_per_epoch,
            f"{steps} optimizer steps for {epochs_run} epochs, expected "
            f"{epochs_run * steps_per_epoch}")
    m.check(c["optimizer"] is not None
            and c["optimizer"].step_count == steps,
            "optimizer step count does not match the timed steps")
    logged = [row for log in c["logs"] for row in log.steps]
    m.check(len(logged) == steps, f"{len(logged)} logged steps, "
            f"expected {steps}")
    for step, bd, gamma in logged:
        values = dataclasses.astuple(bd) + (gamma,)
        if not all(math.isfinite(v) for v in values):
            m.problems.append(f"non-finite loss at step {step}: {bd}")
            break
    m.check(all(log.validation is not None for log in c["logs"]),
            "an epoch ran without validation")
    # the model learns: a broken gradient or optimizer update that keeps
    # the losses finite shows here within the shortest measured call
    epoch_loss = [statistics.fmean(bd.total for _, bd, _ in log.steps)
                  for log in c["logs"] if log.steps]
    m.details.setdefault("epoch_mean_loss", []).append(
        [round(v, 4) for v in epoch_loss])
    if len(epoch_loss) >= TRAIN_MIN_EPOCHS:
        drop = 1.0 - epoch_loss[-1] / epoch_loss[0]
        m.check(drop >= LOSS_DROP_MIN,
                f"mean total loss fell by {drop:.1%} from epoch 1 to epoch "
                f"{len(epoch_loss)}, less than {LOSS_DROP_MIN:.0%}")
    # text and augmented text are encoded once per step each
    invocations = c["model"].text_invocations if c["model"] else 0
    m.details["text_invocations"] = \
        m.details.get("text_invocations", 0) + invocations
    m.check(invocations == 2 * steps,
            f"text encoder invoked {invocations} times in {steps} steps, "
            f"expected {2 * steps}")
    if epochs_run == full_epochs and c["result"] is not None:
        res = c["result"]
        preds = evaluation.predict(res.model, state.test, res.code_vocab)
        f1 = evaluation.compute_metrics(preds).f1
        m.details["held_out_f1"] = f1
        m.check(f1 >= HELD_OUT_F1_MIN,
                f"held-out F1 {f1:.3f} after {full_epochs} epochs is below "
                f"{HELD_OUT_F1_MIN}")


# ------------------------------------------------------------ infer-mixed

INFER_CORPUS_SIZE = 256
INFER_MAX_BODIES = 7
INFER_MODEL_SEED = 0
INFER_MIN_CALLS = 100       # p90 with 10 samples above it
AGREEMENT_TOL = 1e-9


def _fixture_parts(record):
    tokens = record.code.split()
    # header: "<type> <name> ( char * buf ) {", footer: "return 0 ; }"
    return tokens[:8], tokens[8:-4], tokens[-4:]


def infer_corpus(seed):
    """Functions made of 1-7 fixture bodies, so lengths vary widely.

    A function is labelled 1 when any joined body carries the planted
    unsafe call.
    """
    pool = generate_fixture(2 * INFER_CORPUS_SIZE, seed=seed)
    rng = np.random.default_rng([seed, 0x1FE2])
    records = []
    for i in range(INFER_CORPUS_SIZE):
        # every body count equally often, so the length mix hardly varies
        # with the seed
        k = 1 + i % INFER_MAX_BODIES
        # function i opens with fixture function i, so its name and code
        # are unique; further bodies recur across functions
        others = rng.choice(len(pool) - 1, size=k - 1, replace=False)
        picks = [pool[i]] + [pool[j + (j >= i)] for j in others]
        header, _, footer = _fixture_parts(picks[0])
        body = [tok for rec in picks for tok in _fixture_parts(rec)[1]]
        cwe = sorted({c for rec in picks for c in rec.cwe or []}) or None
        records.append(data.FunctionRecord(
            id=f"im-{i:04d}", code=" ".join(header + body + footer),
            label=max(rec.label for rec in picks), cwe=cwe,
            project="synthetic"))
    return records


@dataclasses.dataclass
class InferState:
    corpus: list
    vocab: object
    model: object
    max_len: int


def infer_setup(seed, workdir):
    corpus = infer_corpus(seed)
    config = training.TrainConfig()
    code_vocab = data.build_vocab(corpus, "code", config.vocab_size)
    text_vocab = data.build_vocab(corpus, "text", config.vocab_size)
    seeded = model.DualEncoderModel(config.encoder_config(code_vocab.size),
                                    config.encoder_config(text_vocab.size),
                                    seed=INFER_MODEL_SEED)
    path = str(Path(workdir) / "infer-model")
    training.save_checkpoint(seeded, path)
    loaded, _ = training.load_checkpoint(path)
    return InferState(corpus, code_vocab, loaded, config.max_input_length)


def _timed_predict(state, records, batch_size, m, seen):
    """One closed-loop `predict` call; returns its latency (inf if it
    failed) and checks its output."""
    t0 = CLOCK()
    try:
        preds = evaluation.predict(state.model, records, state.vocab,
                                   max_input_length=state.max_len,
                                   batch_size=batch_size)
    except (evaluation.EvalError, model.ModelError, ArithmeticError,
            ValueError) as exc:
        m.problems.append(f"predict failed: {type(exc).__name__}: {exc}")
        m.failed += 1
        return math.inf
    dt = CLOCK() - t0
    got = [(p.id, p.probability) for p in preds.predictions]
    ok = [p[0] for p in got] == [r.id for r in records] and \
        all(0.0 < p < 1.0 for _, p in got)
    if not ok:
        m.problems.append(f"predict at batch {batch_size} returned wrong ids "
                          "or probabilities outside (0, 1)")
        m.failed += 1
        return math.inf
    for rid, p in got:
        ref = seen.setdefault(rid, p)
        if abs(ref - p) > AGREEMENT_TOL:
            m.problems.append(f"{rid}: probability {p!r} at batch "
                              f"{batch_size} disagrees with {ref!r}")
            break
    return dt


def infer_measure(state, budget_s, plan=None, strict=True):
    """Closed loop of `predict` calls over whole cycles of the corpus.

    A cycle makes one 32-record call per chunk of the corpus, which is one
    pass at `predict`'s default batch size (`predict` chunks by 32 itself,
    so the pass costs what one call over the whole corpus costs). After
    each 32-record call come single-record calls on a quarter of that
    chunk, a different quarter each cycle. Interleaving the two keeps both
    sampling the whole run, so a slow spell of the machine does not land
    on one of them only. `plan` is the number of cycles, replayed exactly.
    """
    m = Measurement()
    corpus = state.corpus
    counter_before = state.model.text_invocations
    seen = {}
    start = CLOCK()
    min_cycles = math.ceil(INFER_MIN_CALLS / math.ceil(len(corpus) / 32)) \
        if strict else 1
    chunks = [corpus[i:i + 32] for i in range(0, len(corpus), 32)]
    b1, b32, cycle_times = [], [], []
    while True:
        if plan is not None:
            if len(cycle_times) == plan:
                break
        elif len(cycle_times) >= min_cycles and CLOCK() - start >= budget_s:
            break
        quarter = len(cycle_times) % 4
        pass_time = 0.0
        for chunk in chunks:
            dt = _timed_predict(state, chunk, 32, m, seen)
            b32.append(dt)
            pass_time += dt
            b1.extend(_timed_predict(state, [rec], 1, m, seen)
                      for rec in chunk[quarter::4])
        cycle_times.append(pass_time)
    m.wall_s = CLOCK() - start
    m.plan = len(cycle_times)
    m.attempted = len(b1) + len(b32)

    m.check(len(seen) == len(corpus), f"{len(seen)} of {len(corpus)} "
            "records predicted")
    invocations = state.model.text_invocations - counter_before
    m.details["text_invocations"] = invocations
    m.check(invocations == 0,
            f"text encoder invoked {invocations} times during code-only "
            "inference")
    passes = [len(corpus) / t for t in cycle_times]
    m.report("predict_fn_per_s", statistics.median(passes), "records/s",
             "records_per_s", samples=len(passes))
    if strict:
        m.report_percentiles(("b1_latency_p50_ms", "b1_latency_p90_ms"), b1,
                             end_to_end=True)
        m.report_percentiles(("b32_latency_p50_ms", "b32_latency_p90_ms"),
                             b32)
    n_tokens = [len(data.tokenize(r.code, "code")) for r in corpus]
    m.details.update(
        cycles=len(cycle_times), b1_calls=len(b1), b32_calls=len(b32),
        corpus=len(corpus),
        tokens_min=min(n_tokens), tokens_median=statistics.median(n_tokens),
        tokens_max=max(n_tokens),
        truncated=sum(n > state.max_len for n in n_tokens))
    return m


# --------------------------------------------------------- comment-remote

COMMENT_CHUNK = 32
COMMENT_MIN_RECORDS = 100   # p90 with 10 samples above it
CLIENT_BACKOFF_S = 0.002
SERVER_START_TIMEOUT_S = 20.0


def comment_chunk(seed, k):
    """The k-th batch of fixture functions, unseen by earlier batches."""
    records = generate_fixture(COMMENT_CHUNK, seed=[seed, k])
    return [dataclasses.replace(r, id=f"cr-{k:04d}-{j:02d}")
            for j, r in enumerate(records)]


class MockProcess:
    """The mock chat server in a child process on 127.0.0.1."""

    def __init__(self):
        script = Path(mock_chat.__file__)
        self.proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        SERVER_START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("port "):
                raise RuntimeError(f"mock server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.close()
            raise
        self.url = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stats(self):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclasses.dataclass
class CommentState:
    seed: int
    server: object
    config: ProviderConfig
    next_chunk: int = 0

    def take_chunk(self):
        chunk = comment_chunk(self.seed, self.next_chunk)
        self.next_chunk += 1
        return chunk

    def close(self):
        self.server.close()


def comment_setup(seed, workdir):
    # loopback only, whatever proxy the environment names
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    server = MockProcess()
    config = ProviderConfig(mode="remote", endpoint=server.url,
                            model="perfbench-mock", timeout=10.0,
                            backoff_base=CLIENT_BACKOFF_S)
    return CommentState(seed=seed, server=server, config=config)


def comment_measure(state, budget_s, plan=None, strict=True):
    """Closed loop of `attach_comments` calls, each over a fresh batch of
    32 functions, timing each record's three-turn exchange as well.
    `plan` is the number of calls, replayed exactly."""
    m = Measurement()
    before = state.server.stats()
    rates = []
    record_lat = []
    ok_records = 0
    start = CLOCK()
    min_calls = math.ceil(COMMENT_MIN_RECORDS / COMMENT_CHUNK) \
        if strict else 1
    llm = comments.generate_comment_llm
    latency = {}

    def timed_llm(record, config):
        t0 = CLOCK()
        out = llm(record, config)
        latency[record.id] = CLOCK() - t0
        return out

    comments.generate_comment_llm = timed_llm
    try:
        while True:
            if plan is not None:
                if len(rates) == plan:
                    break
            elif len(rates) >= min_calls and CLOCK() - start >= budget_s:
                break
            chunk = state.take_chunk()
            latency.clear()
            t0 = CLOCK()
            try:
                out, _ = comments.attach_comments(chunk, state.config)
            except comments.CommentError:
                out = chunk
            dt = CLOCK() - t0
            good = 0
            for rec in out:
                if rec.comment == mock_chat.final_sentence(rec.code):
                    good += 1
                    record_lat.append(latency[rec.id])
                else:
                    record_lat.append(math.inf)
                    if len(m.problems) < 5:
                        m.problems.append(f"{rec.id}: comment "
                                          f"{rec.comment!r}")
            ok_records += good
            m.attempted += len(chunk)
            m.failed += len(chunk) - good
            rates.append(good / dt)
    finally:
        comments.generate_comment_llm = llm
    m.wall_s = CLOCK() - start
    m.plan = len(rates)
    after = state.server.stats()
    requests = after["chat_requests"] - before["chat_requests"]
    failures = after["failures"] - before["failures"]
    m.check(requests == 3 * ok_records + failures,
            f"server saw {requests} requests for {ok_records} records and "
            f"{failures} injected failures, expected "
            f"{3 * ok_records + failures}")
    m.check(failures == after["chat_requests"] // mock_chat.FAIL_EVERY
            - before["chat_requests"] // mock_chat.FAIL_EVERY,
            f"server injected {failures} failures, expected one every "
            f"{mock_chat.FAIL_EVERY} requests")
    m.report("comments_per_s", statistics.median(rates), "records/s",
             "records_per_s", samples=len(rates))
    if strict:
        m.report_percentiles(("comment_latency_p50_ms",
                              "comment_latency_p90_ms"), record_lat,
                             end_to_end=True)
    connections = after["chat_connections"] - before["chat_connections"]
    m.details.update(calls=len(rates), records=m.attempted,
                     server_requests=requests, injected_failures=failures,
                     connections=connections, text_invocations=0)
    return m


@dataclasses.dataclass(frozen=True)
class Workload:
    setup: object
    measure: object


WORKLOADS = {
    "train-full": Workload(train_setup, train_measure),
    "infer-mixed": Workload(infer_setup, infer_measure),
    "comment-remote": Workload(comment_setup, comment_measure),
}
