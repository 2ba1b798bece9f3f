"""Bit-level equivalence golden for the simulated CAPS runs.

Pins, for every CAPS configuration the experiments and perfbench run (the
``caps_memory_sweep`` and ``table1`` schedules, strassen and winograd at
p = 7 and 49, a few mixed schedules, and classical3 at p = 27):

* the sha256 of the product C (integer inputs, so C is exact);
* critical-path words, messages and the superstep count;
* a digest of every superstep's label and sorted per-rank tallies;
* per-rank memory peaks and flops, and the critical-path flops.

Any change to the CAPS schedule code or to the ``Machine`` accounting must
keep every field.  Regenerate (only for a deliberate model change) with::

    PYTHONPATH=src python tests/test_caps_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.base import ParallelConfig, get_parallel
from repro.util.matgen import integer_matrix

GOLDEN_PATH = Path(__file__).parent / "data" / "caps_golden.json"

#: (scheme, n, p, schedule)
P49_SCHEDULES = ("BB", "DBB", "BDB", "BBD", "DDBB", "DBDB", "DBBD", "BDDB")
P7_SCHEDULES = ("B", "DB", "DDB", "BD", "DBD")
CONFIGS = [
    *(("strassen", 112, 49, s) for s in P49_SCHEDULES),
    *(("strassen", 56, 7, s) for s in P7_SCHEDULES),
    ("winograd", 56, 7, "B"),
    ("winograd", 112, 49, "BB"),
    ("winograd", 112, 49, "DBB"),
    ("classical3", 27, 27, "B"),
]


def _config_id(cfg) -> str:
    scheme, n, p, schedule = cfg
    return f"{scheme}-n{n}-p{p}-{schedule}"


def _fingerprint(scheme: str, n: int, p: int, schedule: str) -> dict:
    A, B = integer_matrix(n, seed=11), integer_matrix(n, seed=13)
    cfg = ParallelConfig(n=n, p=p, scheme=scheme, schedule=schedule)
    r = get_parallel("caps").execute(A, B, cfg)
    m = r.machine
    steps = [
        [s.label, sorted(s.sent.items()), sorted(s.recv.items()), sorted(s.msgs.items())]
        for s in m.log.steps
    ]
    return {
        "C_sha256": hashlib.sha256(np.ascontiguousarray(r.C).tobytes()).hexdigest(),
        "critical_words": int(m.critical_words),
        "critical_messages": int(m.critical_messages),
        "n_supersteps": int(m.log.n_supersteps),
        "steps_sha256": hashlib.sha256(json.dumps(steps).encode()).hexdigest(),
        "mem_peak": [int(x) for x in m.mem_peak],
        "flops": [int(x) for x in m.flops],
        "critical_flops": int(m.critical_flops),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_config(golden):
    assert sorted(golden) == sorted(_config_id(c) for c in CONFIGS)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
def test_caps_run_matches_golden(cfg, golden):
    got = _fingerprint(*cfg)
    want = golden[_config_id(cfg)]
    for field in want:
        assert got[field] == want[field], f"{_config_id(cfg)}: {field} changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_caps_golden.py --regen")
    data = {_config_id(c): _fingerprint(*c) for c in CONFIGS}
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(data.items())]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(data)} configs)")
