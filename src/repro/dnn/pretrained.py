"""Pretraining of the generic network, with an on-disk checkpoint cache.

Pretraining is the expensive, do-once step: the network learns the general
shape->exponent mapping from fully randomized synthetic data (random
sequences, coefficients, noise in [0, 100 %], up to five repetitions).
Checkpoints are cached under ``~/.cache/repro-dnn`` (override with
``REPRO_CACHE_DIR``) keyed by the pretraining configuration, so repeated
runs -- including every test and benchmark session -- pay the cost once.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.dnn.config import PretrainConfig
from repro.dnn.factory import build_network
from repro.nn.network import Sequential, TrainingHistory
from repro.synthesis.training import TrainingSetConfig, generate_training_set
from repro.util.seeding import as_generator


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-dnn"


def pretraining_set_config(config: PretrainConfig) -> TrainingSetConfig:
    """The fully randomized training-set configuration of Sec. IV-D."""
    return TrainingSetConfig(
        samples_per_class=config.samples_per_class,
        repetitions=config.max_repetitions,
    )


def pretrain_network(
    config: "PretrainConfig | None" = None,
    rng=None,
    return_history: bool = False,
    checkpoint_path: "Path | str | None" = None,
    checkpoint_every: int = 1,
) -> "Sequential | tuple[Sequential, TrainingHistory]":
    """Pretrain a fresh generic network (no cache involvement).

    With ``checkpoint_path`` set, training checkpoints there after every
    ``checkpoint_every`` epochs and self-resumes from the same file, so a
    killed pretraining run continues where it stopped -- and, because the
    RNG state is checkpointed too, finishes with bit-identical weights.
    Note the training-set generation and network init always replay from
    the seed; only the epoch loop resumes.
    """
    config = config or PretrainConfig.default()
    gen = as_generator(config.seed if rng is None else rng)
    x, y = generate_training_set(pretraining_set_config(config), gen)
    network = build_network(config.network, gen)
    history = network.fit(
        x,
        y,
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        rng=gen,
        checkpoint_every=checkpoint_every if checkpoint_path is not None else None,
        checkpoint_path=checkpoint_path,
        resume_from=checkpoint_path,
    )
    return (network, history) if return_history else network


def load_or_pretrain(
    config: "PretrainConfig | None" = None,
    cache_dir: "Path | str | None" = None,
) -> Sequential:
    """Load the cached generic network, pretraining and caching on a miss.

    The cache key covers every hyperparameter including the seed, so a cached
    checkpoint is bit-identical to what a fresh pretraining run would give.
    """
    config = config or PretrainConfig.default()
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = directory / f"generic-{config.network.name}-{config.cache_key()}.npz"
    if path.exists():
        return Sequential.load(path)
    directory.mkdir(parents=True, exist_ok=True)
    # Self-resuming: a run killed mid-pretraining left this checkpoint
    # behind, and the next call picks it up instead of starting over.
    ckpt = path.with_suffix(".ckpt")
    network = pretrain_network(config, checkpoint_path=ckpt)
    network.save(path)  # atomic (temp file + rename)
    ckpt.unlink(missing_ok=True)
    return network
