"""Mini-batch training loop, Adam with decoupled weight decay, gradient
clipping, seeding and checkpointing."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .augment import augment_tokens, _substream
from .data import build_vocab, encode, tokenize
from .losses import LossWeights, similarity_matrix, total_loss
from .model import DualEncoderModel, EncoderConfig

CHECKPOINT_VERSION = 1

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
    resample_augmentation: bool = True
    disable_aug_alignment: bool = False
    disable_consistency: bool = False
    fine_tuning_only: bool = False
    select_best_f1: bool = True

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1 or self.learning_rate <= 0:
            raise TrainError(f"invalid training config: {self}")
        if not 0.0 <= self.alpha <= 1.0:
            raise TrainError(f"alpha {self.alpha} must lie in [0, 1]")
        w = self.weights
        if self.fine_tuning_only:
            w = LossWeights(0.0, 0.0, 0.0, w.classification)
        else:
            if self.disable_aug_alignment:
                w = LossWeights(w.clip_orig, 0.0, w.consistency,
                                w.classification)
            if self.disable_consistency:
                w = LossWeights(w.clip_orig, w.clip_aug, 0.0,
                                w.classification)
        self.weights = w

    def encoder_config(self, vocab_size):
        return EncoderConfig(
            vocab_size=vocab_size, embed_dim=self.embed_dim,
            num_blocks=self.num_blocks, num_heads=self.num_heads,
            ff_dim=self.ff_dim, max_input_length=self.max_input_length,
            proj_dim=self.proj_dim)


class AdamOptimizer:
    """Adam with bias correction and decoupled weight decay (applied as a
    direct shrink before the Adam delta)."""

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def clip_gradients(self, max_norm=GRAD_CLIP_NORM):
        total = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total += float((p.grad ** 2).sum())
        norm = np.sqrt(total)
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params.values():
                if p.grad is not None:
                    p.grad *= scale
        return norm

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
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
            p.grad = np.zeros_like(p.data)


@dataclass
class EpochLog:
    epoch: int
    steps: list            # list of (step, LossBreakdown, gamma)
    validation: dict       # metrics dict from evaluation


@dataclass
class TrainResult:
    model: DualEncoderModel
    best_model_params: dict
    best_epoch: int
    best_f1: float
    epoch_logs: list
    code_vocab: object
    text_vocab: object


def _batches(indices, batch_size):
    for i in range(0, len(indices), batch_size):
        yield indices[i:i + batch_size]


def train(records, validation, config, log_path=None, progress=None):
    """Train the dual-encoder model; returns the final model plus the
    best-validation-F1 parameter snapshot and per-epoch logs."""
    from .evaluation import predict, compute_metrics

    for rec in records:
        if rec.comment is None:
            raise TrainError(f"record {rec.id!r} has no comment; "
                             "run attach_comments first")

    code_vocab = build_vocab(records, "code", config.vocab_size)
    text_vocab = build_vocab(records, "text", config.vocab_size)
    model = DualEncoderModel(
        config.encoder_config(code_vocab.size),
        config.encoder_config(text_vocab.size),
        seed=config.seed)
    optimizer = AdamOptimizer(model.parameters(), config.learning_rate,
                              config.weight_decay)

    tokenized = [(tokenize(r.code, "code"), tokenize(r.comment, "text"))
                 for r in records]
    contrastive = (config.weights.clip_orig != 0
                   or config.weights.clip_aug != 0
                   or config.weights.consistency != 0)

    log_rows = []
    epoch_logs = []
    best_f1 = -1.0
    best_epoch = -1
    best_params = None
    step = 0
    epoch_start = 0
    for epoch in range(config.epochs):
        shuffle_rng = np.random.default_rng([config.seed, epoch, 0xC0DE])
        order = shuffle_rng.permutation(len(records))
        aug_epoch = epoch if config.resample_augmentation else 0
        for batch_idx in _batches(list(order), config.batch_size):
            step += 1
            code_seqs, code_aug_seqs, text_seqs, text_aug_seqs = [], [], [], []
            labels = []
            for i in batch_idx:
                rec = records[i]
                code_tokens, text_tokens = tokenized[i]
                code_seqs.append(encode(code_tokens, code_vocab,
                                        config.max_input_length))
                labels.append(rec.label)
                if contrastive:
                    code_aug = augment_tokens(
                        code_tokens, config.alpha,
                        _substream(config.seed, rec.id, "code", aug_epoch))
                    text_aug = augment_tokens(
                        text_tokens, config.alpha,
                        _substream(config.seed, rec.id, "text", aug_epoch))
                    text_seqs.append(encode(text_tokens, text_vocab,
                                            config.max_input_length))
                    code_aug_seqs.append(encode(code_aug, code_vocab,
                                                config.max_input_length))
                    text_aug_seqs.append(encode(text_aug, text_vocab,
                                                config.max_input_length))

            z_code = model.project(model.encode_batch(code_seqs, "code"),
                                   "code")
            _, probs = model.classify(z_code)
            if contrastive:
                z_code_aug = model.project(
                    model.encode_batch(code_aug_seqs, "code"), "code")
                z_text = model.project(
                    model.encode_batch(text_seqs, "text"), "text")
                z_text_aug = model.project(
                    model.encode_batch(text_aug_seqs, "text"), "text")
                gamma = model.logit_scale()
                sim_o = similarity_matrix(z_code, z_text, gamma)
                sim_a = similarity_matrix(z_code_aug, z_text_aug, gamma)
            else:
                z_code_aug = z_text = z_text_aug = z_code
                sim_o = sim_a = None
            loss, breakdown = total_loss(
                sim_o, sim_a, z_code, z_code_aug, z_text, z_text_aug,
                probs, labels, config.weights)
            if not np.isfinite(breakdown.total):
                raise TrainError(f"non-finite loss at step {step}")
            ad.backward(loss)
            optimizer.clip_gradients()
            optimizer.step()
            log_rows.append((step, breakdown, model.logit_scale().item()))

        val_metrics = None
        if validation:
            preds = predict(model, validation, code_vocab,
                            max_input_length=config.max_input_length)
            val_metrics = compute_metrics(preds)
            if val_metrics.f1 > best_f1:
                best_f1 = val_metrics.f1
                best_epoch = epoch
                best_params = {k: p.data.copy()
                               for k, p in model.params.items()}
        epoch_logs.append(EpochLog(
            epoch=epoch,
            steps=log_rows[epoch_start:],
            validation=val_metrics.__dict__.copy() if val_metrics else None))
        epoch_start = len(log_rows)
        if progress:
            progress(epoch, epoch_logs[-1])

    if log_path:
        write_loss_log(log_rows, log_path)

    if config.select_best_f1 and best_params is not None:
        for k, p in model.params.items():
            p.data[...] = best_params[k]
    return TrainResult(
        model=model, best_model_params=best_params, best_epoch=best_epoch,
        best_f1=best_f1, epoch_logs=epoch_logs,
        code_vocab=code_vocab, text_vocab=text_vocab), log_rows


def write_loss_log(log_rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,clip_orig,clip_aug,consistency,classification,"
                 "total,gamma\n")
        for step, bd, gamma in log_rows:
            fh.write(f"{step},{bd.clip_orig:.12g},{bd.clip_aug:.12g},"
                     f"{bd.consistency:.12g},{bd.classification:.12g},"
                     f"{bd.total:.12g},{gamma:.12g}\n")


# ------------------------------------------------------------- checkpoints

def save_checkpoint(model, path, step=0, seed=None):
    names = sorted(model.params)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "code_config": asdict(model.code_config),
        "text_config": asdict(model.text_config),
        "step": step,
        "seed": model.seed if seed is None else seed,
        "parameters": {},
    }
    offset = 0
    payload = bytearray()
    for name in names:
        data = model.params[name].data
        raw = np.ascontiguousarray(data, dtype="<f8").tobytes()
        manifest["parameters"][name] = {
            "shape": list(data.shape), "offset": offset, "length": len(raw)}
        payload.extend(raw)
        offset += len(raw)
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    with open(path + ".params.bin", "wb") as fh:
        fh.write(bytes(payload))


def load_checkpoint(path):
    with open(path + ".manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {manifest.get('version')} is not supported "
            f"(expected {CHECKPOINT_VERSION})")
    with open(path + ".params.bin", "rb") as fh:
        payload = fh.read()
    model = DualEncoderModel(
        EncoderConfig(**manifest["code_config"]),
        EncoderConfig(**manifest["text_config"]),
        seed=manifest["seed"])
    expected = set(model.params)
    declared = set(manifest["parameters"])
    if expected != declared:
        missing = sorted((expected - declared) | (declared - expected))
        raise CheckpointError(f"unknown or missing parameter: {missing[0]}")
    for name, meta in manifest["parameters"].items():
        lo, n = meta["offset"], meta["length"]
        if lo + n > len(payload):
            raise CheckpointError(f"truncated payload for parameter {name}")
        arr = np.frombuffer(payload[lo:lo + n], dtype="<f8").reshape(
            meta["shape"])
        if arr.shape != model.params[name].data.shape:
            raise CheckpointError(f"shape mismatch for parameter {name}")
        model.params[name].data[...] = arr
    return model, manifest
