"""Mini-batch training loop, Adam with decoupled weight decay, gradient
clipping, seeding and checkpointing."""

from __future__ import annotations

import json
import math
import os
import zipfile
import zlib
from dataclasses import InitVar, dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .augment import augment_tokens, keyed_rng
from .data import (PAD_TOKEN, UNK_TOKEN, TokenSequence, build_vocab, encode,
                   tokenize)
from .losses import LossWeights, similarity_matrix, total_loss
from .model import (LOGIT_SCALE_INIT, DualEncoderModel, EncoderConfig,
                    parameter_table)

CHECKPOINT_VERSION = 4

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 1.0


class TrainError(RuntimeError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 10
    learning_rate: float = 3e-5
    weight_decay: float = 1e-4
    weights: LossWeights = field(default_factory=LossWeights)
    alpha: float = 0.05
    max_input_length: int = 256
    seed: int = 0
    embed_dim: int = 64
    num_blocks: int = 2
    num_heads: int = 4
    ff_dim: int = 128
    proj_dim: int = 32
    vocab_size: int = 2048
    fine_tuning_only: InitVar[bool] = False  # zeroes contrastive weights
    select_best_f1: bool = True

    def __post_init__(self, fine_tuning_only):
        if self.batch_size < 1 or self.epochs < 1:
            raise TrainError(f"invalid training config: {self}")
        if self.seed < 0:
            raise TrainError(f"seed {self.seed} must be non-negative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainError(f"learning_rate {self.learning_rate!r} must be "
                             "finite and positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise TrainError(f"weight_decay {self.weight_decay!r} must be "
                             "finite and non-negative")
        if self.vocab_size < 3:
            raise TrainError(f"vocab_size {self.vocab_size} must be >= 3")
        if not 0.0 <= self.alpha <= 1.0:
            raise TrainError(f"alpha {self.alpha} must lie in [0, 1]")
        if fine_tuning_only:
            self.weights = LossWeights(0.0, 0.0, 0.0,
                                       self.weights.classification)

    def encoder_config(self, vocab_size):
        return EncoderConfig(
            vocab_size=vocab_size, embed_dim=self.embed_dim,
            num_blocks=self.num_blocks, num_heads=self.num_heads,
            ff_dim=self.ff_dim, max_input_length=self.max_input_length,
            proj_dim=self.proj_dim)


class AdamOptimizer:
    """Adam with bias correction and decoupled weight decay (applied as a
    direct shrink before the Adam delta). A step leaves a parameter with no
    gradient untouched, decay included."""

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def clip_gradients(self):
        grads = [p.grad for p in self.params.values() if p.grad is not None]
        norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads))
        if not math.isfinite(norm):  # scaling by 1/inf would zero every g
            raise ad.NonFiniteError(f"pre-clip gradient norm is {norm}")
        if norm > GRAD_CLIP_NORM:
            for g in grads:
                g *= GRAD_CLIP_NORM / norm
        return norm

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:  # the loss did not reach this parameter
                continue
            if not np.all(np.isfinite(g)):
                raise TrainError(f"non-finite gradient for parameter {name}")
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            p.grad = None


@dataclass
class EpochLog:
    epoch: int
    steps: list            # list of (step, LossBreakdown, gamma)
    validation: dict       # metrics dict from evaluation


@dataclass
class TrainResult:
    model: DualEncoderModel
    best_epoch: int
    best_f1: float
    epoch_logs: list
    code_vocab: object


# overflow surfaces as the per-node check's typed error, not numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def train(records, validation, config, progress=None):
    """Train the dual-encoder model; returns the model (restored to its
    best-validation-F1 epoch if `select_best_f1`) with per-epoch logs, and
    the loss-log rows."""
    from .evaluation import EvalError, predict, compute_metrics

    w = config.weights
    reads_text = max(w.clip_orig, w.consistency) > 0
    reads_aug = max(w.clip_aug, w.consistency) > 0
    if not records:
        raise TrainError("no training records")
    uncommented = [r.id for r in records if r.comment is None]
    if uncommented and w.reads_comments:
        raise TrainError(f"record {uncommented[0]!r} has no comment; "
                         "run attach_comments first")
    vocabs = {"code": build_vocab(records, "code", config.vocab_size)}
    text_config = None  # no weighted term reads text: no text side at all
    if w.reads_comments:
        vocabs["text"] = build_vocab(records, "text", config.vocab_size)
        text_config = config.encoder_config(vocabs["text"].size)
    # ids once per record: augment draws depend only on a sequence's length
    ids = {m: [encode(toks, vocab, len(toks)).tokens for toks in (
        tokenize(r.code if m == "code" else r.comment, m) for r in records)]
        for m, vocab in vocabs.items()}
    model = DualEncoderModel(config.encoder_config(vocabs["code"].size),
                             text_config, seed=config.seed)
    optimizer = AdamOptimizer(model.parameters(), config.learning_rate,
                              config.weight_decay)

    def view(batch_idx, modality, epoch=None):
        """The batch's projected `modality` view, augmented if `epoch`."""
        seqs = []
        for i in batch_idx:
            seq = ids[modality][i]
            if epoch is not None:
                seq = augment_tokens(seq, config.alpha, keyed_rng(
                    config.seed, records[i].id, modality, epoch))
            seqs.append(TokenSequence(seq[:config.max_input_length], modality))
        return model.project(model.encode_batch(seqs, modality), modality)

    log_rows = []
    epoch_logs = []
    best_f1 = -1.0
    best_epoch = -1
    best_params = None
    step = 0
    epoch_start = 0
    try:
        for epoch in range(config.epochs):
            order = np.random.default_rng(
                [config.seed, epoch, 0xC0DE]).permutation(len(records))
            for start in range(0, len(order), config.batch_size):
                batch_idx = order[start:start + config.batch_size]
                step += 1
                z_code = view(batch_idx, "code")
                _, probs = model.classify(z_code)
                # built only if a weighted term reads it, else None
                z_code_aug = (view(batch_idx, "code", epoch) if reads_aug
                              else None)
                z_text = view(batch_idx, "text") if reads_text else None
                z_text_aug = (view(batch_idx, "text", epoch) if reads_aug
                              else None)
                gamma = (model.logit_scale()
                         if max(w.clip_orig, w.clip_aug) > 0 else None)
                sim_o = (similarity_matrix(z_code, z_text, gamma)
                         if w.clip_orig > 0 else None)
                sim_a = (similarity_matrix(z_code_aug, z_text_aug, gamma)
                         if w.clip_aug > 0 else None)
                loss, breakdown = total_loss(
                    sim_o, sim_a, z_code, z_code_aug, z_text, z_text_aug,
                    probs, [records[i].label for i in batch_idx], w)
                ad.backward(loss)
                optimizer.clip_gradients()
                optimizer.step()
                with ad.no_grad():
                    scale = (model.logit_scale().item() if text_config
                             else LOGIT_SCALE_INIT)
                log_rows.append((step, breakdown, scale))

            val_metrics = None
            if validation:
                preds = predict(model, validation, vocabs["code"])
                val_metrics = compute_metrics(preds)
                if val_metrics.f1 > best_f1:
                    best_f1 = val_metrics.f1
                    best_epoch = epoch
                    best_params = {k: p.data.copy()
                                   for k, p in model.params.items()}
            epoch_logs.append(EpochLog(
                epoch=epoch,
                steps=log_rows[epoch_start:],
                validation=(val_metrics.__dict__.copy() if val_metrics
                            else None)))
            epoch_start = len(log_rows)
            if progress:
                progress(epoch, epoch_logs[-1])
    except (ad.NonFiniteError, EvalError) as exc:  # EvalError: in predict
        raise TrainError(f"training diverged at epoch {epoch}, step "
                         f"{step}: {exc}") from exc

    if config.select_best_f1 and best_params is not None:
        for k, p in model.params.items():
            p.data[...] = best_params[k]
    return TrainResult(
        model=model, best_epoch=best_epoch, best_f1=best_f1,
        epoch_logs=epoch_logs, code_vocab=vocabs["code"]), log_rows


def write_loss_log(log_rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,clip_orig,clip_aug,consistency,classification,"
                 "total,gamma\n")
        for step, bd, gamma in log_rows:
            fh.write(f"{step},{bd.clip_orig:.12g},{bd.clip_aug:.12g},"
                     f"{bd.consistency:.12g},{bd.classification:.12g},"
                     f"{bd.total:.12g},{gamma:.12g}\n")


# ------------------------------------------------------------- checkpoints

_MANIFEST_KEYS = {"version", "code_config", "seed", "step"}
# every way numpy's npz reader has been seen to fail on a damaged archive
_DECODE_ERRORS = (zipfile.BadZipFile, zlib.error, LookupError, EOFError,
                  RuntimeError, ValueError, OSError)


def save_checkpoint(model, path, step=0, code_vocab=None):
    """Write `<path>.npz`: one float64 member per code-side parameter plus
    a JSON `manifest` member, which holds the code vocabulary's tokens in
    id order when one is given. The file is replaced atomically."""
    manifest = {
        "version": CHECKPOINT_VERSION,
        "code_config": asdict(model.code_config),
        "seed": model.seed,
        "step": step,
    }
    if code_vocab is not None:
        manifest["code_vocab"] = sorted(code_vocab.token_to_id,
                                        key=code_vocab.token_to_id.get)
    names = sorted(name for name, _, _ in parameter_table(model.code_config))
    members = {name: model.params[name].data.astype("<f8") for name in names}
    members["manifest"] = np.array(json.dumps(manifest, sort_keys=True))
    tmp = f"{path}.npz.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, allow_pickle=False, **members)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path + ".npz")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path):
    """The code-only model and the manifest saved at `<path>.npz`. A damaged
    or inconsistent file raises CheckpointError; a missing one, OSError."""
    with open(path + ".npz", "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as archive:
                members = {name: archive[name] for name in archive.files}
            manifest = json.loads(str(members.pop("manifest")))
        except _DECODE_ERRORS as exc:
            raise CheckpointError(
                f"{path}.npz is not a readable checkpoint: {exc!r}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError("checkpoint manifest is not an object")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {manifest.get('version')} is not supported "
            f"(expected {CHECKPOINT_VERSION})")
    odd = sorted(_MANIFEST_KEYS ^ (set(manifest) - {"code_vocab"}))
    if odd:
        raise CheckpointError(f"missing or unknown manifest key: {odd[0]}")
    arrays = {}
    try:  # every member is checked against the table before any draw
        config = EncoderConfig(**manifest["code_config"])
        for name, shape, _ in parameter_table(config):
            if name not in members:
                raise CheckpointError(f"missing parameter: {name}")
            arr = arrays[name] = members.pop(name)
            if arr.dtype != np.dtype("<f8") or arr.shape != shape:
                raise CheckpointError(
                    f"shape or dtype mismatch for parameter {name}: "
                    f"{arr.dtype}{list(arr.shape)}")
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"non-finite value in parameter {name}")
        if members:
            raise CheckpointError(f"unknown parameter: {sorted(members)[0]}")
        model = DualEncoderModel(config, None, seed=manifest["seed"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad model configuration: {exc}") from exc
    for name, arr in arrays.items():
        model.params[name].data[...] = arr
    size = model.code_config.vocab_size
    tokens = manifest.get("code_vocab")
    if "code_vocab" in manifest and not (
            isinstance(tokens, list) and len(tokens) == size
            and all(isinstance(t, str) for t in tokens)
            and len(set(tokens)) == size
            and tokens[:2] == [UNK_TOKEN, PAD_TOKEN]):
        raise CheckpointError(
            f"code vocabulary is not a list of {size} tokens (the code "
            f"encoder's vocabulary size), distinct strings with {UNK_TOKEN} "
            f"at id 0 and {PAD_TOKEN} at id 1")
    return model, manifest
