import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cemvc.data import synth_multiview
from cemvc.model import TrainConfig
from cemvc.pipeline import PipelineConfig, run_cemvc

TOOL = Path(__file__).resolve().parent.parent / "tools" / "value_digest.py"


@pytest.fixture()
def value_digest(monkeypatch):
    """The tool as a module; the thread variables and sys.path it sets are put back."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("value_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_is_equal_for_equal_fits_and_sees_one_flipped_bit(value_digest):
    data = synth_multiview(60, 3, (4, 4), (6.0, 6.0), seed=1)
    cfg = PipelineConfig(
        n_clusters=3, latent_dim=2, hidden_dims=(4,), max_outer_iters=2,
        train=TrainConfig(pretrain_epochs=5, finetune_steps_per_round=3),
    )
    a, b = run_cemvc(data, cfg), run_cemvc(data, cfg)
    assert a.traces  # so the trace fields are hashed
    assert value_digest.digest(a) == value_digest.digest(b)

    assert value_digest.outcome(a) == value_digest.outcome(b)

    # one flipped embedding bit changes the full hash but not the outcome
    embedding = a.embedding.copy()
    embedding.view(np.uint64)[0, 0] ^= 1
    flipped = replace(a, embedding=embedding)
    assert value_digest.digest(flipped) != value_digest.digest(a)
    assert value_digest.outcome(flipped) == value_digest.outcome(a)

    # one changed label changes both
    labels = a.labels.copy()
    labels[0] = (labels[0] + 1) % 3
    relabelled = replace(a, labels=labels)
    assert value_digest.digest(relabelled) != value_digest.digest(a)
    assert value_digest.outcome(relabelled) != value_digest.outcome(a)
