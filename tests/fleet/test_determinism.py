"""Reproducibility guarantees.

DESIGN.md promises bit-for-bit reproducible experiments given a seed.
Two historical bugs motivated these tests: seeding region RNGs with
Python's salted ``hash()``, and iterating a *set* of task names while
consuming RNG draws — both made "the same dataset" differ between
processes.  The cross-process test pins a checksum computed under two
different ``PYTHONHASHSEED`` values.
"""

import json
import os
import subprocess
import sys


from repro.config import FleetConfig
from repro.workload.region import REGION_A
from tests.fleet.dataset_reference import generate_region_dataset

_CHECKSUM_SNIPPET = """
import json
import tempfile
import numpy as np
from repro.config import FleetConfig
from repro.fleet.shards import generate_region_shards
from repro.workload.region import REGION_A

config = FleetConfig(racks_per_region=3, runs_per_rack=2, seed=123)
with tempfile.TemporaryDirectory() as root:
    runs = generate_region_shards(REGION_A, config, root, jobs=1).to_region_dataset().tables["runs"]
checksum = {
    "contention": [round(value, 12) for value in runs["contention_mean"].tolist()],
    "bursts": runs["n_bursts"].astype(int).tolist(),
    "volume": round(sum(runs["total_in_bytes"].tolist()), 3),
}
print(json.dumps(checksum))
"""


def _subprocess_checksum(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    output = subprocess.run(
        [sys.executable, "-c", _CHECKSUM_SNIPPET],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(output.stdout.strip().splitlines()[-1])


class TestCrossProcessDeterminism:
    def test_dataset_independent_of_hash_salt(self):
        """Identical seeds must give identical datasets regardless of
        the interpreter's string-hash salt."""
        first = _subprocess_checksum("0")
        second = _subprocess_checksum("4242")
        assert first == second


class TestInProcessDeterminism:
    def test_same_seed_same_dataset(self):
        config = FleetConfig(racks_per_region=2, runs_per_rack=2, seed=9)
        a = generate_region_dataset(REGION_A, config)
        b = generate_region_dataset(REGION_A, config)
        assert [s.contention.mean for s in a.summaries] == [
            s.contention.mean for s in b.summaries
        ]
        assert [len(s.bursts) for s in a.summaries] == [
            len(s.bursts) for s in b.summaries
        ]

    def test_different_seed_different_dataset(self):
        a = generate_region_dataset(
            REGION_A, FleetConfig(racks_per_region=2, runs_per_rack=2, seed=1)
        )
        b = generate_region_dataset(
            REGION_A, FleetConfig(racks_per_region=2, runs_per_rack=2, seed=2)
        )
        assert [s.contention.mean for s in a.summaries] != [
            s.contention.mean for s in b.summaries
        ]
