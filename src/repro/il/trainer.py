"""Supervised training of the IL policy (paper Eq. 2–3)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.il.dataset import DemonstrationDataset
from repro.il.policy import ILPolicy
from repro.nn import Adam, CrossEntropyLoss


@dataclass(frozen=True)
class TrainingReport:
    """Summary of one training run."""

    epochs: int
    loss_history: tuple
    train_accuracy: float
    validation_accuracy: float
    num_train_samples: int
    num_validation_samples: int
    samples_per_s: float
    """Training throughput: ``epochs * num_train_samples`` over the wall time
    of the optimisation loop (forward, backward and update; the accuracy
    passes are excluded)."""

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


class ILTrainer:
    """Trains an :class:`ILPolicy` on a demonstration dataset.

    The optimisation problem is Eq. 2 of the paper: minimise the cross-entropy
    between the DNN's probabilistic outputs and the expert's discretised
    actions over the demonstration dataset ``D``.
    """

    def __init__(
        self,
        policy: ILPolicy,
        learning_rate: float = 1e-3,
        batch_size: int = 32,
        weight_decay: float = 1e-5,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.policy = policy
        self.batch_size = batch_size
        self.optimizer = Adam(learning_rate=learning_rate, weight_decay=weight_decay)
        self.loss = CrossEntropyLoss()
        self._rng = np.random.default_rng(seed)

    def train(
        self,
        dataset: DemonstrationDataset,
        epochs: int = 20,
        train_fraction: float = 0.85,
        verbose: bool = False,
    ) -> TrainingReport:
        """Run the full training loop and return a report."""
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if len(dataset) < 2:
            raise ValueError("dataset must contain at least 2 samples")

        train_set, validation_set = dataset.split(train_fraction, rng=self._rng)
        if len(validation_set) == 0:
            validation_set = train_set
        train_images, train_targets = train_set.to_arrays()
        validation_images, validation_targets = validation_set.to_arrays()

        begin = time.perf_counter()
        history: List[float] = self.policy.network.fit(
            train_images,
            train_targets,
            loss=self.loss,
            optimizer=self.optimizer,
            epochs=epochs,
            batch_size=self.batch_size,
            rng=self._rng,
            verbose=verbose,
        )
        fit_seconds = time.perf_counter() - begin
        train_accuracy = self.policy.network.accuracy(train_images, train_targets)
        validation_accuracy = self.policy.network.accuracy(validation_images, validation_targets)
        return TrainingReport(
            epochs=epochs,
            loss_history=tuple(history),
            train_accuracy=train_accuracy,
            validation_accuracy=validation_accuracy,
            num_train_samples=len(train_set),
            num_validation_samples=len(validation_set),
            samples_per_s=epochs * len(train_set) / max(fit_seconds, 1e-9),
        )

    def evaluate(self, dataset: DemonstrationDataset) -> float:
        """Classification accuracy of the current policy on a dataset."""
        images, targets = dataset.to_arrays()
        return self.policy.network.accuracy(images, targets)
