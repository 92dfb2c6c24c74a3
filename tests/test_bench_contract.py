"""The benchmark's requests run against the package and pass their checks,
and every package function its tracer wraps exists.

One round of each ``perfbench/workloads.SMOKE`` workload runs in process,
as ``perfbench/run.py`` runs it: the models are written and set up, and
every request is executed and then checked against the oracles by
``perfbench/checks.py``.  A package change that would make a benchmark
request fail, such as a changed signature, fails here.  Nothing under
``perfbench/`` is changed; its modules import each other by bare name.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

import checks
import tracer
import workloads

SEED = 0


@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_one_smoke_round_passes_every_check(tmp_path, name):
    wl = workloads.SMOKE[name]
    workloads.write_models(wl, str(tmp_path), SEED)
    models = workloads.setup(wl, str(tmp_path), SEED)
    rng, oracles = np.random.default_rng([SEED, 1]), {}
    for req in workloads.make_round(wl, SEED):
        out = workloads.execute(req, models)
        assert checks.check(req, out, models, rng, oracles) is None, f"{req.kind}:{req.model}"


# wrapped names the package no longer defines; their per-layer rows read 0
# until the package emits its own spans
STALE = {
    "kernels.softmax_rows", "kernels.layer_norm_columns", "attention.attention_scores",
    "attention.self_attention_head", "transformer.greedy_decode",
    "embeddings.tied_logits_columns", "recurrent.recurrent_hidden",
    "recurrent.recurrent_generate", "ffnn.ffnn_predict", "ffnn.ffnn_generate",
    "training.make_corpus_loss",
}


def test_every_traced_name_exists_in_the_package():
    # a renamed function would silently zero its per-layer row
    names = [f"{module}.{name}" for module, names in tracer.LAYERS.values() for name in names]
    names += [*tracer.FORWARD_FUNCTIONS, ".".join(tracer.LOSS_FACTORY)]
    missing = set()
    for qualname in names:
        module, name = qualname.rsplit(".", 1)
        if not hasattr(importlib.import_module(f"nlmkit.{module}"), name):
            missing.add(qualname)
    assert missing <= STALE, sorted(missing - STALE)
