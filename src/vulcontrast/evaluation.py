"""Code-only inference, classification metrics, PCA export, latency
benchmarking and false-negative overlap analysis."""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import encode, tokenize

DEFAULT_THRESHOLD = 0.5


class EvalError(ValueError):
    pass


@dataclass
class Prediction:
    id: str
    probability: float
    predicted: int
    gold: int
    cwe: list = field(default_factory=list)


@dataclass
class PredictionSet:
    method: str
    threshold: float
    predictions: list


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int

    def to_json_obj(self, method="", dataset="", direction="",
                    threshold=DEFAULT_THRESHOLD):
        return {
            "method": method, "dataset": dataset, "direction": direction,
            "accuracy": round(100.0 * self.accuracy, 2),
            "precision": round(100.0 * self.precision, 2),
            "recall": round(100.0 * self.recall, 2),
            "f1": round(100.0 * self.f1, 2),
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "threshold": threshold,
        }


@dataclass
class LatencyReport:
    mean_s: float
    p50_s: float
    p95_s: float
    sample_count: int
    batch_size: int


@dataclass
class PcaProjection:
    components: np.ndarray       # (2, dim), orthonormal rows
    explained_ratios: list       # descending, in [0, 1]
    coordinates: list            # (id, pc1, pc2, label)


@dataclass
class FnAnalysis:
    fn_totals: dict              # method -> FN count
    regions: dict                # region name -> sorted id list
    cwe_table: dict              # cwe tag -> {method: count}


# ----------------------------------------------------------------- predict

@contextlib.contextmanager
def _finite(what):
    """Overflow in `what` surfaces as EvalError, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield
        except ad.NonFiniteError as exc:
            raise EvalError(f"{what}: {exc}") from exc


def embed_code(model, records, vocab, max_input_length=None, batch_size=32):
    """Projected code embeddings, one row per record, encoded in chunks of
    `batch_size` without building a graph; the text encoder is never
    touched. Code is cut to `max_input_length` tokens, by default the
    model's own."""
    if not records:
        raise EvalError("embed_code: empty record list")
    if batch_size < 1:
        raise EvalError(f"embed_code: batch_size {batch_size} must be >= 1")
    if max_input_length is None:
        max_input_length = model.code_config.max_input_length
    rows = []
    with ad.no_grad():
        for i in range(0, len(records), batch_size):
            chunk = records[i:i + batch_size]
            seqs = [encode(tokenize(r.code, "code"), vocab, max_input_length)
                    for r in chunk]
            with _finite(f"encoding the chunk from record {chunk[0].id!r}"):
                hidden = model.encode_batch(seqs, "code")
                rows.append(model.project(hidden, "code").data)
    return np.vstack(rows)


def predict(model, records, code_vocab, threshold=DEFAULT_THRESHOLD,
            max_input_length=None, method="vulcontrast", batch_size=32):
    """Code-only inference; the text encoder is never touched."""
    if not 0.0 < threshold < 1.0:
        raise EvalError("predict: threshold must lie in (0, 1)")
    projected = embed_code(model, records, code_vocab, max_input_length,
                           batch_size)
    with ad.no_grad(), _finite("classifying"):
        _, probs = model.classify(ad.constant(projected))
    preds = []
    for rec, p in zip(records, probs.data[:, 0]):
        p = float(p)
        preds.append(Prediction(
            id=rec.id, probability=p, predicted=int(p > threshold),
            gold=rec.label, cwe=list(rec.cwe or [])))
    return PredictionSet(method=method, threshold=threshold,
                         predictions=preds)


def compute_metrics(prediction_set):
    preds = prediction_set.predictions
    if not preds:
        raise EvalError("compute_metrics: empty prediction set")
    counts = Counter((p.predicted, p.gold) for p in preds)
    tp, fp, fn, tn = (counts[k] for k in ((1, 1), (1, 0), (0, 1), (0, 0)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    accuracy = (tp + tn) / len(preds)
    return Metrics(accuracy=accuracy, precision=precision, recall=recall,
                   f1=f1, tp=tp, fp=fp, fn=fn, tn=tn)


# --------------------------------------------------------------------- PCA

def pca_project(embeddings, labels, ids=None):
    """Top-2 principal components from the dense eigendecomposition of the
    covariance; each component's largest-magnitude entry is positive."""
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 3 or X.shape[1] < 2:
        raise EvalError("pca_project: need >= 3 rows and dimension >= 2")
    Xc = X - X.mean(axis=0, keepdims=True)
    if np.allclose(Xc, 0.0):
        raise EvalError("pca_project: rank-0 data (all rows equal)")
    cov = (Xc.T @ Xc) / (X.shape[0] - 1)
    total_var = float(np.trace(cov))
    values, vectors = np.linalg.eigh(cov)  # ascending eigenvalues

    comps, ratios = [], []
    for k in (-1, -2):
        v = vectors[:, k]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        comps.append(v)
        # the rank-0 check above makes total_var positive
        ratios.append(max(0.0, float(values[k])) / total_var)
    components = np.vstack(comps)
    coords = Xc @ components.T
    if ids is None:
        ids = [str(i) for i in range(X.shape[0])]
    coordinates = [(rid, float(c[0]), float(c[1]), int(lbl))
                   for rid, c, lbl in zip(ids, coords, labels)]
    return PcaProjection(components=components,
                         explained_ratios=ratios,
                         coordinates=coordinates)


# ----------------------------------------------------------------- latency

def latency_bench(model, records, code_vocab, repetitions=3, batch_size=1):
    if repetitions < 3:
        raise EvalError("latency_bench: repetitions must be >= 3")
    if batch_size < 1:
        raise EvalError(f"latency_bench: batch_size {batch_size} must be >= 1")
    counter_before = model.text_invocations
    # warm-up
    predict(model, records[:batch_size], code_vocab, batch_size=batch_size)
    per_sample = []
    for _ in range(repetitions):
        for i in range(0, len(records), batch_size):
            chunk = records[i:i + batch_size]
            t0 = time.perf_counter()
            predict(model, chunk, code_vocab, batch_size=batch_size)
            dt = time.perf_counter() - t0
            per_sample.extend([dt / len(chunk)] * len(chunk))
    if model.text_invocations != counter_before:
        raise EvalError("text encoder invoked during code-only benchmarking")
    arr = np.asarray(per_sample)
    return LatencyReport(
        mean_s=float(arr.mean()),
        p50_s=float(np.percentile(arr, 50)),
        p95_s=float(np.percentile(arr, 95)),
        sample_count=len(per_sample),
        batch_size=batch_size)


# ------------------------------------------------------------- FN analysis

def false_negative_analysis(pred_sets, gold_records):
    if len(pred_sets) != 3:
        raise EvalError("false_negative_analysis: exactly three methods "
                        "required")
    methods = [ps.method for ps in pred_sets]
    repeated = [m for m in methods if methods.count(m) > 1]
    if repeated:
        raise EvalError(f"false_negative_analysis: method {repeated[0]!r} "
                        "names more than one prediction set")
    id_sets = [frozenset(p.id for p in ps.predictions) for ps in pred_sets]
    if len(set(id_sets)) != 1:
        raise EvalError("false_negative_analysis: prediction sets cover "
                        "different record ids")
    cwe_by_id = {r.id: list(r.cwe or []) for r in gold_records}

    fns = []
    for ps in pred_sets:
        fns.append({p.id for p in ps.predictions
                    if p.gold == 1 and p.predicted == 0})
    a, b, c = fns
    regions = {
        "only_a": a - b - c,
        "only_b": b - a - c,
        "only_c": c - a - b,
        "a_and_b": (a & b) - c,
        "a_and_c": (a & c) - b,
        "b_and_c": (b & c) - a,
        "a_and_b_and_c": a & b & c,
    }
    cwe_table = {}
    for method, fn_set in zip(methods, fns):
        for rid in fn_set:
            tags = cwe_by_id.get(rid) or ["Others"]
            for tag in tags:
                cwe_table.setdefault(tag, {m: 0 for m in methods})
                cwe_table[tag][method] += 1
    return FnAnalysis(
        fn_totals={m: len(s) for m, s in zip(methods, fns)},
        regions={k: sorted(v) for k, v in regions.items()},
        cwe_table=cwe_table)
