"""Pinned crossing searches: ``first_index_reaching`` on the inputs its
callers produce, with the results the search gave when they were pinned.

The inputs come from localdim runs (every exact digit draw, the rows of
the batched crossing), from the steps of three gauss ladders, and from
random starts, exponents and goals, among them p > 1 goals within 1e-12 of
the infinite sum.  Each record holds the start, the exponent and the
target, and either the (index, slack) the search returned or the type and
message of the exception it raised.  A change to the search that claims
the same answers must leave every record as it is, and the batch must give
the recorded answer on every localdim record.

To pin the inputs of new runs after an intended change (say why in the
change log), run ``PYTHONPATH=src python3 tests/test_reach_pins.py`` from
the checkout root: it keeps every record whose input the runs still make,
in its place, and appends the new inputs in run order.
"""

import json
import pathlib
import random

import numpy as np
import pytest

from ifslab import _blocks, measures, powersum, restrictions
from ifslab.families import make_gauss, make_linear_power
from ifslab.measures import local_dim_estimate
from ifslab.powersum import first_index_reaching, first_indices_reaching, power_sum_brackets
from ifslab.restrictions import build_ladder, parse_phi

PINS = pathlib.Path(__file__).resolve().parent / "golden" / "reach_searches.json"

# (system, alpha) of the localdim runs, each 500 samples of depth 30.
LOCALDIM_RUNS = [("gauss", 1.5), ("gauss", 2.0), ("gauss", 3.0), ("linpow:2", 2.0)]
# (phi, steps) of the gauss ladders at eps 0.1.
LADDERS = [("lin:1", 12), ("pow:1.5", 12), ("pow:2", 12)]
RANDOM_SEARCHES = 600


class _Recorder:
    """Keeps the argument triple of every crossing: each row of measures'
    batched calls and each of restrictions' searches."""

    def __init__(self, monkeypatch):
        self.inputs = []
        monkeypatch.setattr(measures, "first_indices_reaching", self.batch)
        monkeypatch.setattr(restrictions, "first_index_reaching", self.search)

    def batch(self, starts, p, targets):
        rows = zip(np.asarray(starts).tolist(), np.asarray(targets, dtype=float).tolist())
        self.inputs += [(start, p, target) for start, target in rows]
        return first_indices_reaching(starts, p, targets)

    def search(self, start, p, target):
        self.inputs.append((start, p, target))
        return first_index_reaching(start, p, target)


def _random_inputs(rng):
    out = []
    for _ in range(RANDOM_SEARCHES):
        bits = rng.choice([rng.randint(1, 20), rng.randint(20, 80), rng.randint(80, 1000)])
        start = rng.getrandbits(bits) | 1 << (bits - 1)
        if rng.random() < 0.5:
            p = rng.uniform(0.2, 1.0)
            out.append((start, p, rng.uniform(1e-6, 50.0)))
            continue
        p = rng.uniform(1.01, 3.0)
        lo, hi = power_sum_brackets(start, None, p)
        kind = rng.random()
        if kind < 0.6:
            out.append((start, p, rng.uniform(0.001, 0.999) * lo))
        elif kind < 0.9:
            # Within 1e-12 of the infinite sum, below and above it.
            out.append((start, p, lo * (1.0 - rng.uniform(0.0, 1e-12))))
        else:
            out.append((start, p, hi * (1.0 + rng.uniform(0.0, 1e-12))))
    return out


def collect_inputs(monkeypatch) -> list:
    """Every search input of the pinned runs, first occurrences in order."""
    monkeypatch.setattr(_blocks, "_cpu_count", lambda: 1)
    rec = _Recorder(monkeypatch)
    for name, alpha in LOCALDIM_RUNS:
        system = make_gauss() if name == "gauss" else make_linear_power(2.0)
        local_dim_estimate(system, alpha, 500, 30, seed=0)
    for phi, steps in LADDERS:
        build_ladder(make_gauss(), parse_phi(phi), 0.1, steps)
    inputs = rec.inputs + _random_inputs(random.Random(32))
    return list(dict.fromkeys(inputs))


def _key(record) -> tuple:
    return int(record["start"], 16), record["p"], record["target"]


def _outcome(start, p, target):
    try:
        got = first_index_reaching(start, p, target)
    except (ValueError, powersum.NumericFailure) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"index": hex(got.index), "slack": hex(got.slack)}


def _records(inputs) -> list:
    return [
        {"start": hex(start), "p": p, "target": target, **_outcome(start, p, target)}
        for start, p, target in inputs
    ]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINS.read_text())


def test_enough_searches_are_pinned(pinned):
    assert len(pinned) >= 2000
    assert {"ValueError", "NumericFailure"} <= {r.get("error") for r in pinned}


def test_pinned_searches_are_unchanged(pinned):
    inputs = [(int(r["start"], 16), r["p"], r["target"]) for r in pinned]
    assert _records(inputs) == pinned


def test_pinned_inputs_are_the_runs_inputs(pinned, monkeypatch):
    got = collect_inputs(monkeypatch)
    keys = [_key(r) for r in pinned]
    assert len(set(keys)) == len(keys)
    assert set(got) == set(keys)


def test_batch_matches_every_pinned_search_it_can_take(pinned):
    # Every record without an error at p > 1 and a start of at most 10**6:
    # the localdim rows (one p a run) and some of the random searches.
    runs = {}
    for r in pinned:
        start, p, target = _key(r)
        if "error" not in r and p > 1.0 and start <= measures._CHAIN_EXACT_CAP:
            want = int(r["index"], 16), int(r["slack"], 16)
            runs.setdefault(p, []).append((start, target, want))
    assert sum(map(len, runs.values())) > 3000
    for p, rows in runs.items():
        starts, targets, want = zip(*rows)
        assert first_indices_reaching(np.array(starts), p, np.array(targets)) == list(want)


def test_localdim_draws_make_few_scalar_bracket_calls(monkeypatch):
    # Gauss, alpha 1.5, 500 x 30, seed 3, one block: the batch leaves 17 of
    # its 1535 exact draws to the crossing search, which make 63 bracket
    # calls, 0.041 a draw.  Before the batch each search made 2.09.
    monkeypatch.setattr(_blocks, "_cpu_count", lambda: 1)
    rec = _Recorder(monkeypatch)
    calls = []
    bracket = powersum._Keys.bracket

    def spy(self, key):
        calls.append(key)
        return bracket(self, key)

    monkeypatch.setattr(powersum._Keys, "bracket", spy)
    local_dim_estimate(make_gauss(), 1.5, 500, 30, seed=3)
    assert len(rec.inputs) > 1500
    assert len(calls) / len(rec.inputs) <= 0.05


if __name__ == "__main__":
    mp = pytest.MonkeyPatch()
    try:
        inputs = collect_inputs(mp)
    finally:
        mp.undo()
    wanted = set(inputs)
    kept = [r for r in json.loads(PINS.read_text()) if _key(r) in wanted]
    known = {_key(r) for r in kept}
    records = kept + _records([x for x in inputs if x not in known])
    PINS.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    print(f"{len(records)} searches pinned in {PINS}, {len(records) - len(kept)} of them new")
