"""Output fingerprint: simulator results pinned per ``SCHEMA_VERSION``.

Result-store entries and stream bundles are keyed by ``SCHEMA_VERSION``,
so a change to what the simulator outputs must bump it; otherwise a
persistent cache would keep serving results the current code no longer
produces.  This test holds digests of two output sets, computed at
40k trace accesses per app (seed 0):

* a reduced canonical grid — the four canonical designs on two apps;
* the Figure 3 points and the Figure 4 points, choice and baseline;
* the L2 streams of the grid's two apps: every column, the trace
  context and the L1 stats (the L1 filter's output).

It fails when any output changes under an unchanged version.  After an
intended change, bump ``SCHEMA_VERSION`` and record the new digests::

    PYTHONPATH=src python tests/test_output_fingerprint.py --record
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.designs import DESIGN_NAMES
from repro.engine import JobSpec, run_jobs
from repro.engine.spec import SCHEMA_VERSION, canonical_json
from repro.engine.streamcache import experiment_stream
from repro.experiments.figures import fig3_size_sweep, fig4_static_space

DATA = Path(__file__).parent / "data" / "output_fingerprints.json"
LENGTH = 40_000
GRID_APPS = ("browser", "game")


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def fingerprints() -> dict[str, str]:
    """Digest of each output set (engine provenance left out)."""
    grid = []
    for outcome in run_jobs([JobSpec(d, a, LENGTH) for a in GRID_APPS for d in DESIGN_NAMES]):
        result = outcome.result.to_dict()
        result["extras"].pop("sim_engine")
        grid.append(result)
    fig4 = fig4_static_space(LENGTH)
    figures = {
        "fig3": fig3_size_sweep(LENGTH).points,
        "fig4": [dataclasses.asdict(p) for p in fig4.points],
        "fig4_chosen": dataclasses.asdict(fig4.chosen),
        "fig4_baseline": fig4.baseline_miss_rate,
    }
    streams = {}
    for app in GRID_APPS:
        stream = experiment_stream(app, LENGTH)
        streams[app] = {
            "columns": {
                name: hashlib.sha256(np.ascontiguousarray(col).tobytes()).hexdigest()
                for name, col in stream.columns().items()
            },
            "context": stream.context(),
        }
    return {"grid": _digest(grid), "figures": _digest(figures), "streams": _digest(streams)}


def test_outputs_match_the_digests_pinned_for_this_schema_version():
    pinned = json.loads(DATA.read_text())
    assert str(SCHEMA_VERSION) in pinned, (
        f"no digests pinned for SCHEMA_VERSION {SCHEMA_VERSION}; record them "
        f"(see this module's docstring)")
    assert fingerprints() == pinned[str(SCHEMA_VERSION)], (
        "simulator output changed under an unchanged SCHEMA_VERSION: bump it "
        "and record the new digests (see this module's docstring)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    pinned = json.loads(DATA.read_text()) if DATA.exists() else {}
    pinned[str(SCHEMA_VERSION)] = fingerprints()
    DATA.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"recorded digests for SCHEMA_VERSION {SCHEMA_VERSION} in {DATA}")
