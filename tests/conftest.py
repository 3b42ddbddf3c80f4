import numpy as np
import pytest

from contprune import corpus as corpus_mod
from contprune import model as model_mod
from contprune import trainer as trainer_mod
from contprune.seeding import derive_seed

DESK_SEED = 0
DESK_TRAIN_STEPS = 6000


@pytest.fixture(scope="session")
def desk_dir(tmp_path_factory):
    """Default desk-scale corpora: three 200k-token synthetic sources."""
    out = tmp_path_factory.mktemp("desk")
    corpus_mod.generate_corpora(out, n_tokens=200_000, seed=DESK_SEED)
    return out


@pytest.fixture(scope="session")
def desk_corpora(desk_dir):
    return {
        name: corpus_mod.load_corpus(desk_dir / f"{name}.bin", name)
        for name in corpus_mod.GENERATOR_NAMES
    }


@pytest.fixture(scope="session")
def desk_model_path(desk_dir, desk_corpora):
    """The desk base checkpoint: d=64, two blocks, trained on the mixture."""
    path = desk_dir / "model.ckpt"
    net = model_mod.make_decoder(d=64, hidden=128, blocks=2, seed=derive_seed(DESK_SEED, "init"))
    cfg = trainer_mod.TrainConfig(
        steps=DESK_TRAIN_STEPS,
        batch=16,
        seq_len=64,
        learning_rate=0.3,
        seed=derive_seed(DESK_SEED, "train"),
    )
    corpora = [desk_corpora[name] for name in sorted(desk_corpora)]
    net = trainer_mod.train(net, corpora, cfg)
    model_mod.save_checkpoint(net, path)
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


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
