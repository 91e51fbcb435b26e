"""Output checks, run outside the timed phase.  Each raises
:class:`CheckFailed` on a wrong output; a failed check fails the command."""

from __future__ import annotations

import hashlib

import numpy as np

#: Losses averaged at each end of a training run for the trend check.
TREND_WINDOW = 20


class CheckFailed(AssertionError):
    """A benchmark output check failed."""


def loss_digest(losses) -> str:
    return hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes()
                          ).hexdigest()


def check_train(losses, replica_losses) -> None:
    """Every loss finite; a second run of the same seed reproduces the loss
    sequence bit for bit; the loss falls over the run."""
    losses = np.asarray(losses, dtype=np.float64)
    if not np.isfinite(losses).all():
        raise CheckFailed(f"{int((~np.isfinite(losses)).sum())} non-finite "
                          "training losses")
    n = len(replica_losses)
    if len(losses) < max(n, 2 * TREND_WINDOW):
        raise CheckFailed(f"only {len(losses)} training steps ran")
    if loss_digest(losses[:n]) != loss_digest(replica_losses):
        raise CheckFailed("loss sequence differs between two runs of one "
                          "seed")
    first = losses[:TREND_WINDOW].mean()
    last = losses[-TREND_WINDOW:].mean()
    if not last < first:
        raise CheckFailed(f"loss did not fall: first {TREND_WINDOW} mean "
                          f"{first:.4f}, last {TREND_WINDOW} mean {last:.4f}")


def array_digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def check_digest(label: str, got: str, want: np.ndarray) -> None:
    """A recorded output digest must match ``want`` bit for bit."""
    if got != array_digest(want):
        raise CheckFailed(f"{label}: not bit-identical to the reference")


def check_conservation(tally: dict) -> None:
    """Every submitted request is answered exactly once."""
    answered = (tally["completed"] + tally["rejected"] + tally["timeout"]
                + tally["failed"])
    if tally["submitted"] != answered:
        raise CheckFailed(f"submitted {tally['submitted']} != completed + "
                          f"rejected + timeout + failed = {answered}")
