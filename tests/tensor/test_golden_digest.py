"""Golden gradient digests: the engine's numerics pinned to history.

The kernel goldens compare the fused kernels against the reference graphs,
but both run on the same autograd engine, so a change to the engine itself
would move them together.  These digests pin the SHA-256 of the loss bytes
and of every parameter gradient after one seeded forward+backward of the
16x32 TINY16 model, with the fused kernels and under
:func:`repro.kernels.disable_kernels`.  Any change to the engine, the
kernels or the model must keep them bit for bit.

The constants depend on NumPy's float32 kernels and BLAS, so they hold for
one NumPy build and CPU family (x86_64, OpenBLAS).  To re-pin them on
another platform, run this module as a script on an unchanged checkout:
``PYTHONPATH=src python -m tests.tensor.test_golden_digest``.
"""

import hashlib
from contextlib import nullcontext

import numpy as np
import pytest

from repro.diffusion.loss import weighted_velocity_loss
from repro.kernels import disable_kernels
from repro.model import Aeris
from repro.tensor import Tensor
from tests.train.test_trainer import TINY16

GOLDEN = {
    "kernels": {
        "loss": "c243173532dd628d6b0e6491202251e55fe1638cf5b12daceaa8bd6a24a7f9f2",
        "grads": "6859b566b7be7afa52dcb171994ed93db353a889886931fd20e9ff1d670d3f73",
    },
    "reference": {
        "loss": "c243173532dd628d6b0e6491202251e55fe1638cf5b12daceaa8bd6a24a7f9f2",
        "grads": "6859b566b7be7afa52dcb171994ed93db353a889886931fd20e9ff1d670d3f73",
    },
}


def _digests(use_kernels: bool) -> dict[str, str]:
    """Loss and parameter-gradient digests of one seeded train step."""
    cfg = TINY16
    rng = np.random.default_rng(2024)
    shape = (2, cfg.height, cfg.width)

    def normal(*tail):
        return rng.normal(size=shape + tail).astype(np.float32)

    x_t, cond = normal(cfg.channels), normal(cfg.channels)
    forc, target = normal(cfg.forcing_channels), normal(cfg.channels)
    t = rng.uniform(0.1, 1.5, size=2).astype(np.float32)
    lat_weights = np.cos(np.linspace(-1.4, 1.4, cfg.height))
    var_weights = rng.uniform(0.5, 2.0, size=cfg.channels)

    model = Aeris(cfg, seed=0)
    with nullcontext() if use_kernels else disable_kernels():
        pred = model(Tensor(x_t), Tensor(t), Tensor(cond), Tensor(forc))
        loss = weighted_velocity_loss(pred, target, lat_weights, var_weights)
        loss.backward()
    grads = hashlib.sha256()
    for name, p in model.named_parameters():
        assert p.grad is not None, f"{name} received no gradient"
        grads.update(name.encode())
        grads.update(np.ascontiguousarray(p.grad).tobytes())
    return {"loss": hashlib.sha256(loss.numpy().tobytes()).hexdigest(),
            "grads": grads.hexdigest()}


@pytest.mark.parametrize("mode", ["kernels", "reference"])
def test_train_step_digests_match_history(mode):
    assert _digests(mode == "kernels") == GOLDEN[mode]


if __name__ == "__main__":
    for mode in GOLDEN:
        print(mode, _digests(mode == "kernels"))
