"""The benchmark's requests run against the package and pass their checks.

One round of each ``perfbench/workloads.SMOKE`` workload runs in process,
as ``perfbench/run.py`` runs it: the models are written and set up, and
every request is executed and then checked against the oracles by
``perfbench/checks.py``.  A package change that would make a benchmark
request fail, such as a changed signature, fails here.  Nothing under
``perfbench/`` is changed; its modules import each other by bare name.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

import checks
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
