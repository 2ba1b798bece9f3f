"""Bit-level equivalence golden for the simulated parallel runs.

Pins, for every CAPS configuration the experiments and perfbench run (the
``caps_memory_sweep`` and ``table1`` schedules, strassen and winograd at
p = 7 and 49, a few mixed schedules, and classical3 at p = 27), and for
the grid algorithms (Cannon, SUMMA, 2.5D with c ∈ {1, 2, 4} and 3D at the
``scaling_sweep`` configs with n = 112, p ≤ 256, plus 3D at n = 48,
p ≤ 216):

* the sha256 of the product C (integer inputs, so C is exact);
* critical-path words, messages and the superstep count;
* a digest of every superstep's label and sorted per-rank tallies;
* per-rank memory peaks and flops, and the critical-path flops;
* a digest of every rank's final holdings (key, dtype, shape, bytes).

One configuration per algorithm also runs with ``memory_limit`` one word
below its unlimited peak and pins the ``MemoryError`` text (rank, words
and key of the first store over the limit).

Any change to the algorithms or to the ``Machine`` accounting must keep
every field.  Regenerate (only for a deliberate model change) with::

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

#: (algorithm, n, p, c) — the grid algorithms' scaling-sweep configs
GRID_CONFIGS = [
    *(("cannon", 112, p, 1) for p in (4, 16, 49, 64, 196, 256)),
    *(("summa", 112, p, 1) for p in (4, 16, 49, 64, 196, 256)),
    *(("2.5d", 112, p, 1) for p in (4, 16, 49, 64, 196, 256)),
    *(("2.5d", 112, p, 2) for p in (8, 32, 128)),
    *(("2.5d", 112, p, 4) for p in (64, 256)),
    *(("3d", 112, p, 1) for p in (8, 64)),
    *(("3d", 48, p, 1) for p in (8, 27, 64, 216)),
]

#: (algorithm, n, p, c, scheme, schedule) run at memory_limit = peak − 1
LIMIT_CONFIGS = [
    ("caps", 112, 49, 1, "strassen", "DBB"),
    ("cannon", 112, 16, 1, None, None),
    ("summa", 112, 16, 1, None, None),
    ("2.5d", 112, 32, 2, None, None),
    ("3d", 48, 27, 1, None, None),
]


def _config_id(cfg) -> str:
    scheme, n, p, schedule = cfg
    return f"{scheme}-n{n}-p{p}-{schedule}"


def _grid_id(cfg) -> str:
    algo, n, p, c = cfg
    return f"{algo}-n{n}-p{p}-c{c}"


def _limit_id(cfg) -> str:
    algo, n, p, c, scheme, schedule = cfg
    return f"{algo}-n{n}-p{p}-c{c}-{scheme}-{schedule}-limit"


def _run(algo: str, n: int, p: int, c: int, scheme, schedule, memory_limit=None):
    A, B = integer_matrix(n, seed=11), integer_matrix(n, seed=13)
    cfg = ParallelConfig(
        n=n, p=p, c=c, scheme=scheme, schedule=schedule, memory_limit=memory_limit
    )
    return get_parallel(algo).execute(A, B, cfg)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _fingerprint_run(r) -> dict:
    m = r.machine
    steps = [
        [s.label, sorted(s.sent.items()), sorted(s.recv.items()), sorted(s.msgs.items())]
        for s in m.log.steps
    ]
    holdings = [
        [
            rank,
            key,
            str(held.dtype),
            list(held.shape),
            hashlib.sha256(np.ascontiguousarray(held).tobytes()).hexdigest(),
        ]
        for rank in range(m.p)
        for key in m.keys(rank)
        for held in [m.get_rows([rank], key)[0]]
    ]
    return {
        "C_sha256": hashlib.sha256(np.ascontiguousarray(r.C).tobytes()).hexdigest(),
        "critical_words": int(m.critical_words),
        "critical_messages": int(m.critical_messages),
        "n_supersteps": int(m.log.n_supersteps),
        "steps_sha256": _digest(steps),
        "mem_peak": [int(x) for x in m.mem_peak],
        "flops": [int(x) for x in m.flops],
        "critical_flops": int(m.critical_flops),
        "holdings_sha256": _digest(holdings),
    }


def _fingerprint(scheme: str, n: int, p: int, schedule: str) -> dict:
    return _fingerprint_run(_run("caps", n, p, 1, scheme, schedule))


def _grid_fingerprint(algo: str, n: int, p: int, c: int) -> dict:
    return _fingerprint_run(_run(algo, n, p, c, None, None))


def _limit_fingerprint(algo: str, n: int, p: int, c: int, scheme, schedule) -> dict:
    peak = _run(algo, n, p, c, scheme, schedule).max_mem_peak
    try:
        _run(algo, n, p, c, scheme, schedule, memory_limit=peak - 1)
    except MemoryError as exc:
        return {"memory_limit": int(peak - 1), "memory_error": str(exc)}
    raise AssertionError(f"{algo} ran within memory_limit = peak - 1 = {peak - 1}")


def _all_fingerprints() -> dict:
    return {
        **{_config_id(c): _fingerprint(*c) for c in CONFIGS},
        **{_grid_id(c): _grid_fingerprint(*c) for c in GRID_CONFIGS},
        **{_limit_id(c): _limit_fingerprint(*c) for c in LIMIT_CONFIGS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _assert_matches(got: dict, want: dict, cid: str) -> None:
    for field in want:
        assert got[field] == want[field], f"{cid}: {field} changed"


def test_golden_covers_every_config(golden):
    assert sorted(golden) == sorted(
        [_config_id(c) for c in CONFIGS]
        + [_grid_id(c) for c in GRID_CONFIGS]
        + [_limit_id(c) for c in LIMIT_CONFIGS]
    )


@pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
def test_caps_run_matches_golden(cfg, golden):
    _assert_matches(_fingerprint(*cfg), golden[_config_id(cfg)], _config_id(cfg))


@pytest.mark.parametrize("cfg", GRID_CONFIGS, ids=_grid_id)
def test_grid_run_matches_golden(cfg, golden):
    _assert_matches(_grid_fingerprint(*cfg), golden[_grid_id(cfg)], _grid_id(cfg))


@pytest.mark.parametrize("cfg", LIMIT_CONFIGS, ids=_limit_id)
def test_memory_error_matches_golden(cfg, golden):
    _assert_matches(_limit_fingerprint(*cfg), golden[_limit_id(cfg)], _limit_id(cfg))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_caps_golden.py --regen")
    data = _all_fingerprints()
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(data.items())]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(data)} configs)")
