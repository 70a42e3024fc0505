"""The names `perfbench` patches by string still exist and are called
through their modules.

`perfbench.tracer.instrument` swaps module attributes for timing wrappers
and restores them on exit. A renamed or deleted name makes it fail; a
name the library stops calling through its module leaves its layer at
zero. Both break the benchmark without failing any other test here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracer  # noqa: E402
from vulcontrast import evaluation, model, training  # noqa: E402
from vulcontrast.comments import ProviderConfig, attach_comments  # noqa: E402
from vulcontrast.fixtures import generate_fixture  # noqa: E402

# Layers that the train-full and infer-mixed workloads report and that a
# short training run followed by `predict` must reach.
LAYERS = ("training.train", "data.build_vocab", "data.tokenize",
          "data.encode", "augment.augment_tokens", "model.encode_batch.code",
          "model.encode_batch.text", "model.project", "model.classify",
          "losses.similarity_matrix", "losses.total_loss",
          "training.clip_gradients", "training.adam_step",
          "evaluation.predict", "autodiff.backward", "autodiff.matmul.fwd",
          "autodiff.matmul.bwd")


def test_instrument_wraps_then_restores_every_patched_name():
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, _ in tracer._patch_list(tracer.Tracer())}
    t = tracer.Tracer()
    with tracer.instrument(t):
        wrapped = [key for key, value in originals.items()
                   if key[0].__dict__[key[1]] is not value]
        records, _ = attach_comments(generate_fixture(n=8, seed=1),
                                     ProviderConfig())
        config = training.TrainConfig(
            batch_size=4, epochs=1, embed_dim=8, num_blocks=1, num_heads=2,
            ff_dim=16, proj_dim=4, vocab_size=64, max_input_length=32)
        result, _ = training.train(records, [], config)
        evaluation.predict(result.model, records, result.code_vocab)
    assert wrapped == list(originals)
    assert all(owner.__dict__[attr] is value
               for (owner, attr), value in originals.items())
    calls, _ = t.self_times()
    assert [name for name in LAYERS if not calls[name]] == []
    # the train-full workload swaps this name to capture the model
    assert training.DualEncoderModel is model.DualEncoderModel
