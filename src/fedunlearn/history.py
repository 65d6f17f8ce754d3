"""History of global models across training and unlearning epochs.

Positions are global 0-based round counts over the concatenated timeline:
position p is the model after p recorded rounds.  Each unlearning request
truncates the timeline at its rollback position and restarts there: its
perturbed checkpoint replaces the model at that position, and retraining
appends after it.  The history keeps one live model per position.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .models import Params, as_params


class TrainingHistory:
    """Live global models by position."""

    def __init__(self, theta0: Params):
        self.models: list[Params] = [as_params(theta0).copy()]

    @property
    def end_position(self) -> int:
        return len(self.models) - 1

    @property
    def final_model(self) -> Params:
        return self.models[-1]

    def extend(self, models) -> int:
        """Record the models after as many more rounds, the rows of a
        (rounds, d) block copied as one; returns the last one's position."""
        block = np.array(models, dtype=np.float64)
        width = self.models[0].shape[0]
        if block.ndim != 2 or block.shape[1] != width:
            raise DimensionMismatchError(f"model block must have shape (rounds, {width}), got {block.shape}")
        self.models.extend(block)
        return self.end_position

    def model_at(self, position: int) -> Params:
        """Live model at a global position."""
        self._check_position(position)
        return self.models[position]

    def truncate(self, position: int) -> None:
        """Discard every model strictly after `position`."""
        self._check_position(position)
        del self.models[position + 1 :]

    def restart(self, first_model: Params) -> None:
        """Replace the model at the end position with a retraining's first model."""
        self.models[-1] = as_params(first_model).copy()

    def _check_position(self, position: int) -> None:
        if not 0 <= position <= self.end_position:
            raise IndexError(
                f"position {position} outside history range [0, {self.end_position}]"
            )

    @classmethod
    def from_models(cls, models) -> "TrainingHistory":
        """A history holding models[p] at each position p, given as a
        (positions, d) block or a sequence of models."""
        hist = cls(models[0])
        if len(models) > 1:
            hist.extend(models[1:])
        return hist
