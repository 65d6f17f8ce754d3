"""History of global models across training and unlearning epochs.

Positions are global 0-based round counts over the concatenated timeline:
position p is the model after p recorded rounds.  Each unlearning request
truncates the timeline at its rollback position and starts a new segment
whose first model, the perturbed checkpoint, replaces the model at that
position.  The history keeps one live model per position and the index of
the segment that owns it.
"""

from __future__ import annotations

from .models import Params, as_params


class TrainingHistory:
    """Live global models by position, each tagged with its owning segment."""

    def __init__(self, theta0: Params):
        self.models: list[Params] = [as_params(theta0).copy()]
        self.owners: list[int] = [0]

    @property
    def end_position(self) -> int:
        return len(self.models) - 1

    @property
    def final_model(self) -> Params:
        return self.models[-1]

    def append_model(self, model: Params) -> int:
        """Record the model after one more round; returns its position."""
        self.models.append(as_params(model).copy())
        self.owners.append(self.owners[-1])
        return self.end_position

    def model_at(self, position: int) -> Params:
        """Live model at a global position."""
        self._check_position(position)
        return self.models[position]

    def segment_at(self, position: int) -> int:
        """Segment index owning the model returned by model_at(position)."""
        self._check_position(position)
        return self.owners[position]

    def truncate(self, position: int) -> None:
        """Discard every model strictly after `position`."""
        self._check_position(position)
        del self.models[position + 1 :], self.owners[position + 1 :]

    def start_segment(self, index: int, first_model: Params) -> None:
        """Open segment `index` at the end position with `first_model` there.

        Segment indices must increase along the timeline.
        """
        if index <= self.owners[-1]:
            raise ValueError(f"segment {index} must follow segment {self.owners[-1]}")
        self.models[-1] = as_params(first_model).copy()
        self.owners[-1] = index

    def _check_position(self, position: int) -> None:
        if not 0 <= position <= self.end_position:
            raise IndexError(
                f"position {position} outside history range [0, {self.end_position}]"
            )

    @classmethod
    def from_models(cls, models) -> "TrainingHistory":
        """A single-segment history holding models[p] at each position p."""
        hist = cls(models[0])
        for model in models[1:]:
            hist.append_model(model)
        return hist
