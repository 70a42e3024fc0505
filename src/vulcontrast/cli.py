"""Command-line entry point orchestrating the full pipeline."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict, fields

from . import __version__
from .augment import augment_tokens, keyed_rng
from .comments import ProviderConfig, attach_comments, CommentError
from .data import (DatasetError, Vocabulary, dataset_stats, load_jsonl,
                   read_lines, save_jsonl, stratified_split, tokenize)
from .evaluation import (EvalError, PredictionSet, Prediction, compute_metrics,
                         embed_code, false_negative_analysis, latency_bench,
                         pca_project, predict)
from .fixtures import generate_fixture
from .losses import LossError, LossWeights
from .model import ModelError
from .training import (CheckpointError, TrainConfig, TrainError,
                       load_checkpoint, save_checkpoint, train,
                       write_loss_log)

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_IO = 2


def _emit(obj, output):
    text = json.dumps(obj, indent=1, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@contextlib.contextmanager
def _flags(error, given):
    """Re-raise a ValueError from the library as `error`, prefixed with
    the flags and values that led to it."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{given}: {exc}") from None


def _read_config_file(path):
    """Flat key = value file; '#' starts a comment; each key appears once."""
    values = {}
    line_of_key = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DatasetError(f"{path}: bad config line {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in line_of_key:
            raise DatasetError(
                f"{path}: config key {key} repeated on lines "
                f"{line_of_key[key]} and {lineno}")
        line_of_key[key] = lineno
        values[key] = value.strip('"')
    return values


# Config keys are the scalar fields of TrainConfig plus those of LossWeights
# (flattened in place of `weights`); each is parsed as its default's type.
_CONFIG_TYPES = {f.name: type(f.default)
                 for f in fields(TrainConfig) + fields(LossWeights)
                 if f.name != "weights"}
_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def _parse_config_value(key, text):
    kind = _CONFIG_TYPES[key]
    try:
        return _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise DatasetError(
            f"config key {key}: {text!r} is not a valid {kind.__name__}")


def _build_train_config(args):
    values = _read_config_file(args.config) if args.config else {}
    unknown = set(values) - set(_CONFIG_TYPES)
    if unknown:
        raise DatasetError(f"unknown config keys: {sorted(unknown)}")
    values = {k: _parse_config_value(k, v) for k, v in values.items()}
    if args.seed is not None:
        values["seed"] = args.seed
    weights = LossWeights(**{f.name: values.pop(f.name)
                             for f in fields(LossWeights) if f.name in values})
    return TrainConfig(weights=weights,
                       fine_tuning_only=args.fine_tuning_only, **values)


def _load_for_inference(args):
    """The model and manifest of --checkpoint, its code vocabulary, and the
    records of --input."""
    model, manifest = load_checkpoint(args.checkpoint)
    if "code_vocab" not in manifest:
        raise CheckpointError(
            f"{args.checkpoint}.npz was saved without a code vocabulary")
    code_vocab = Vocabulary(
        {tok: i for i, tok in enumerate(manifest["code_vocab"])}, "code")
    return model, manifest, code_vocab, load_jsonl(args.input)


# ------------------------------------------------------------- subcommands

def _cmd_stats(args):
    records = load_jsonl(args.input)
    stats = dataset_stats(records)
    _emit({"stats": asdict(stats), "input": args.input}, args.output)
    return EXIT_OK


def _cmd_split(args):
    records = load_jsonl(args.input)
    with _flags(DatasetError,
                f"--fractions {args.fractions!r} --seed {args.seed}"):
        fractions = [float(f) for f in args.fractions.split("/")]
        train_r, val_r, test_r = stratified_split(records, fractions,
                                                  args.seed)
    for name, part in (("train", train_r), ("val", val_r), ("test", test_r)):
        save_jsonl(part, f"{args.output_prefix}.{name}.jsonl")
    print(f"wrote {len(train_r)}/{len(val_r)}/{len(test_r)} records to "
          f"{args.output_prefix}.{{train,val,test}}.jsonl", file=sys.stderr)
    return EXIT_OK


def _cmd_comment(args):
    records = load_jsonl(args.input)
    with _flags(CommentError, f"--mode {args.mode} --endpoint "
                f"{args.endpoint!r} --model {args.model!r} --timeout "
                f"{args.timeout} --retries {args.retries}"):
        config = ProviderConfig(
            mode=args.mode, endpoint=args.endpoint, model=args.model,
            timeout=args.timeout, max_retries=args.retries)
    out, errors = attach_comments(records, config)
    save_jsonl(out, args.output)
    for rid, msg in errors:
        print(f"comment failed for {rid}: {msg}", file=sys.stderr)
    return EXIT_OK


def _cmd_augment(args):
    records = load_jsonl(args.input)
    rows = []
    with _flags(DatasetError, f"--alpha {args.alpha}"):
        for rec in records:
            obj = rec.to_json_obj()
            obj["code_aug"] = " ".join(augment_tokens(
                tokenize(rec.code, "code"), args.alpha,
                keyed_rng(args.seed, rec.id, "code", 0)))
            # like `comment`, written only for a commented record
            if rec.comment is not None:
                obj["comment_aug"] = " ".join(augment_tokens(
                    tokenize(rec.comment, "text"), args.alpha,
                    keyed_rng(args.seed, rec.id, "text", 0)))
            rows.append(obj)
    with open(args.output, "w", encoding="utf-8") as fh:
        for obj in rows:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_train(args):
    config = _build_train_config(args)
    train_records = load_jsonl(args.train)
    val_records = load_jsonl(args.val) if args.val else []
    if config.weights.reads_comments:
        train_records, _ = attach_comments(train_records, ProviderConfig())
    result, log_rows = train(train_records, val_records, config)
    if args.loss_log:
        write_loss_log(log_rows, args.loss_log)
    if args.checkpoint:
        save_checkpoint(result.model, args.checkpoint, step=len(log_rows),
                        code_vocab=result.code_vocab)
    summary = {
        "config": asdict(config),
        "seed": config.seed,
        "best_epoch": result.best_epoch,
        "best_f1": round(100.0 * result.best_f1, 2) if result.best_f1 >= 0
                   else None,
        "final_validation": result.epoch_logs[-1].validation,
        "validation_by_epoch": [log.validation for log in result.epoch_logs],
    }
    _emit(summary, args.output)
    return EXIT_OK


def _cmd_eval(args):
    model, manifest, code_vocab, records = _load_for_inference(args)
    preds = predict(model, records, code_vocab, threshold=args.threshold,
                    method=args.method)
    metrics = compute_metrics(preds)
    obj = metrics.to_json_obj(method=args.method, dataset=args.input,
                              direction=args.direction,
                              threshold=args.threshold)
    obj["seed"] = manifest["seed"]
    obj["config"] = manifest["code_config"]
    if args.predictions:
        with open(args.predictions, "w", encoding="utf-8") as fh:
            json.dump({
                "method": args.method, "threshold": args.threshold,
                "predictions": [vars(p).copy() for p in preds.predictions],
            }, fh, indent=1, sort_keys=True)
    _emit(obj, args.output)
    return EXIT_OK


def _cmd_pca_export(args):
    model, manifest, code_vocab, records = _load_for_inference(args)
    embeddings = embed_code(model, records, code_vocab)
    proj = pca_project(embeddings, [r.label for r in records],
                       ids=[r.id for r in records])
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("id,pc1,pc2,label\n")
        for rid, pc1, pc2, label in proj.coordinates:
            fh.write(f"{rid},{pc1:.9g},{pc2:.9g},{label}\n")
    _emit({"explained_variance_ratios": proj.explained_ratios,
           "seed": manifest["seed"]}, args.output + ".meta.json")
    return EXIT_OK


def _cmd_bench_latency(args):
    model, manifest, code_vocab, records = _load_for_inference(args)
    report = latency_bench(model, records, code_vocab,
                           repetitions=args.repetitions,
                           batch_size=args.batch_size)
    _emit({"latency": vars(report).copy(), "seed": manifest["seed"]},
          args.output)
    return EXIT_OK


def _prediction_fault(p):
    """What is wrong with the fields of a loaded prediction entry, if
    anything."""
    prob = p.probability
    if not isinstance(p.id, str):
        return "id must be a string"
    if (isinstance(prob, bool) or not isinstance(prob, (int, float))
            or not 0.0 <= prob <= 1.0):
        return "probability must be a finite number in [0, 1]"
    if any(type(v) is not int or v not in (0, 1)
           for v in (p.predicted, p.gold)):
        return "predicted and gold must each be the integer 0 or 1"
    if p.cwe is not None and not (isinstance(p.cwe, list) and all(
            isinstance(t, str) for t in p.cwe)):
        return "cwe must be null or a list of strings"
    return None


def _load_prediction_set(path):
    """The prediction set that `eval --predictions` wrote to `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            preds = [Prediction(**p) for p in obj["predictions"]]
            pred_set = PredictionSet(method=obj.get("method", path),
                                     threshold=obj.get("threshold", 0.5),
                                     predictions=preds)
        except (ValueError, KeyError, TypeError) as exc:
            raise EvalError(
                f"{path} is not a prediction file: {exc!r}") from exc
    if not isinstance(pred_set.method, str):
        raise EvalError(f"{path}: method {pred_set.method!r} must be a string")
    for k, p in enumerate(preds):
        fault = _prediction_fault(p)
        if fault:
            raise EvalError(f"{path}: prediction {k} ({p.id!r}): {fault}")
    return pred_set


def _cmd_fn_analysis(args):
    if len(args.pred) != 3:
        raise EvalError("fn-analysis requires exactly three --pred files")
    pred_sets = [_load_prediction_set(p) for p in args.pred]
    gold = load_jsonl(args.gold)
    analysis = false_negative_analysis(pred_sets, gold)
    _emit({
        "fn_totals": analysis.fn_totals,
        "regions": {k: {"count": len(v), "ids": v}
                    for k, v in analysis.regions.items()},
        "cwe_table": analysis.cwe_table,
    }, args.output)
    return EXIT_OK


def _cmd_make_fixture(args):
    with _flags(DatasetError, f"--count {args.count} --seed {args.seed}"):
        records = generate_fixture(n=args.count, seed=args.seed)
    save_jsonl(records, args.output)
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="vulcontrast",
        description="contrastive code-text vulnerability detection pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("split", help="stratified train/val/test split")
    p.add_argument("--input", required=True)
    p.add_argument("--fractions", default="0.8/0.1/0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("comment", help="attach generated comments")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--mode", choices=["stub", "remote"], default="stub")
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--retries", type=int, default=3)
    p.set_defaults(func=_cmd_comment)

    p = sub.add_parser("augment", help="write augmented views")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train", help="train the dual-encoder model")
    p.add_argument("--train", required=True)
    p.add_argument("--val")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--checkpoint")
    p.add_argument("--loss-log")
    p.add_argument("--output")
    p.add_argument("--fine-tuning-only", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="code-only evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--method", default="vulcontrast")
    p.add_argument("--predictions")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_eval, direction="")

    p = sub.add_parser("ood-eval", help="cross-dataset evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--direction", default="source->target")
    p.add_argument("--output")
    # unseen target tokens map to <unk> in the source vocabulary
    p.set_defaults(func=_cmd_eval, method="vulcontrast", predictions=None)

    p = sub.add_parser("pca-export", help="2-D PCA of code embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_pca_export)

    p = sub.add_parser("bench-latency", help="inference latency benchmark")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_bench_latency)

    p = sub.add_parser("fn-analysis", help="false-negative overlap analysis")
    p.add_argument("--pred", action="append", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_fn_analysis)

    p = sub.add_parser("make-fixture", help="generate the synthetic corpus")
    p.add_argument("--count", type=int, default=400)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_make_fixture)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONTRACT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DatasetError, EvalError, TrainError, CheckpointError,
            CommentError, ModelError, LossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
