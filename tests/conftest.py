import numpy as np
import pytest

from contprune import cli
from contprune import corpus as corpus_mod
from contprune import model as model_mod
from contprune import pruner as pruner_mod
from contprune import trainer as trainer_mod

DESK_SEED = 0
DESK_TRAIN_STEPS = 6000


def vocabulary_sequence(net):
    """``[0, 1, ..., V-1, 0]``: ``forward`` on it gives the logits after every
    token, row ``a`` for token ``a``, and column ``a`` of each layer input is
    that layer's input for token ``a`` (the trailing 0 is only a target)."""
    return np.append(np.arange(net.vocab_size), 0)


@pytest.fixture(scope="session")
def desk_dir(tmp_path_factory):
    """Default desk-scale corpora: three 200k-token synthetic sources, written
    by README's walkthrough command."""
    out = tmp_path_factory.mktemp("desk")
    assert cli.main(["gen-corpora", "--out", str(out), "--tokens", "200000",
                     "--seed", str(DESK_SEED)]) == 0
    return out


@pytest.fixture(scope="session")
def desk_corpora(desk_dir):
    return {
        name: corpus_mod.load_corpus(desk_dir / f"{name}.bin", name)
        for name in corpus_mod.GENERATOR_NAMES
    }


@pytest.fixture(scope="session")
def desk_model_path(desk_dir):
    """The desk base checkpoint (d=64, two blocks, trained on the mixture),
    built by README's walkthrough command, so the gates check its base."""
    path = desk_dir / "model.ckpt"
    assert cli.main(["train", "--corpora-dir", str(desk_dir), "--out", str(path),
                     "--steps", str(DESK_TRAIN_STEPS), "--seed", str(DESK_SEED)]) == 0
    return path


@pytest.fixture(scope="session")
def desk_model(desk_model_path):
    return model_mod.load_checkpoint(desk_model_path)


@pytest.fixture(scope="session")
def tiny_dir(tmp_path_factory):
    """Small, fast setup for harness mechanics tests."""
    out = tmp_path_factory.mktemp("tiny")
    corpus_mod.generate_corpora(out, n_tokens=30_000, seed=7)
    return out


@pytest.fixture(scope="session")
def tiny_corpora(tiny_dir):
    return {
        name: corpus_mod.load_corpus(tiny_dir / f"{name}.bin", name)
        for name in ("prose", "numeric")
    }


@pytest.fixture(scope="session")
def tiny_model_path(tiny_dir, tiny_corpora):
    path = tiny_dir / "tiny.ckpt"
    net = model_mod.make_decoder(d=32, hidden=64, blocks=1, seed=3)
    cfg = trainer_mod.TrainConfig(
        steps=300, batch=8, seq_len=48, learning_rate=0.3, seed=11,
    )
    net = trainer_mod.train(net, list(tiny_corpora.values()), cfg)
    model_mod.save_checkpoint(net, path)
    return path


@pytest.fixture(scope="session")
def tiny_model(tiny_model_path):
    return model_mod.load_checkpoint(tiny_model_path)


@pytest.fixture(scope="session")
def masked_tiny_model(tiny_model):
    """The tiny model with the lower-magnitude half of each linear weight zeroed."""
    net = tiny_model.copy()
    for idx in net.prunable_indices():
        weight = net.layers[idx].weight
        weight *= pruner_mod.build_mask_unstructured(np.abs(weight), 0.5)
    return net


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
