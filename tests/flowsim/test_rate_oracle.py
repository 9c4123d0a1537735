"""The bundled rate rules against an oracle that shares no code with them.

Each policy's rule is restated here in plain Python — sort by a key with
the job id breaking ties, then grant processors down that order or split
them evenly — and nothing is imported from ``repro.flowsim.rates``.  The
policy's ``rates_array``, and its ``rates_scalar`` where it has one, must
agree with the restatement on drawn active sets: 0 to 40 jobs, 1 to 16
processors, caps in (0, m] with repeats, and keys drawn from small pools
so that ties are common.  Values agree within 1e-12, relative to the
larger of the two and one processor.

SETF, MLF and random-np are pinned by their goldens instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowsim.policies import policy_by_name
from repro.flowsim.policies.base import ActiveView, Policy


def waterfill(caps: list[float], order: list[int], m: float) -> list[float]:
    """Walk ``order`` granting each job its cap until ``m`` runs out."""
    rates = [0.0] * len(caps)
    left = float(m)
    for k in order:
        if left <= 0:
            break
        rates[k] = min(caps[k], left)
        left -= rates[k]
    return rates


def even_split(caps: list[float], chosen: list[int], m: float) -> list[float]:
    """Split ``m`` evenly over the ``chosen`` jobs, none above its cap; what
    a capped job leaves over goes to the others."""
    rates = [0.0] * len(caps)
    chosen = sorted(chosen, key=lambda k: caps[k])
    left = float(m)
    for i, k in enumerate(chosen):
        share = left / (len(chosen) - i)
        if caps[k] > share:
            for rest in chosen[i:]:
                rates[rest] = share
            break
        rates[k] = caps[k]
        left -= caps[k]
    return rates


def by_key(keys: list[float], ids: list[int]) -> list[int]:
    """Positions in ascending ``(key, job id)`` order."""
    return sorted(range(len(ids)), key=lambda k: (keys[k], ids[k]))


def oracle(name: str, inst: dict, policy: Policy) -> list[float]:
    ids, m, caps = inst["ids"], inst["m"], inst["caps"]
    rem, work, rel = inst["remaining"], inst["work"], inst["release"]
    weight = [inst["weights"][j] for j in ids]
    n = len(ids)
    if name == "srpt":
        return waterfill(caps, by_key(rem, ids), m)
    if name in ("sjf", "swf"):
        return waterfill(caps, by_key(work, ids), m)
    if name == "fifo":
        return waterfill(caps, by_key(rel, ids), m)
    if name == "hdf":
        return waterfill(caps, by_key([-w / x for w, x in zip(weight, work)], ids), m)
    if name == "wsrpt":
        return waterfill(caps, by_key([-w / r for w, r in zip(weight, rem)], ids), m)
    if name == "rr":
        return even_split(caps, list(range(n)), m)
    if name == "laps":
        latest = sorted(range(n), key=lambda k: (-rel[k], -ids[k]))
        return even_split(caps, latest[: max(1, math.ceil(policy.beta * n))], m)
    held = [policy.processors_of(j).size for j in ids]
    if name == "drep-par":
        return [min(c, float(h)) for c, h in zip(caps, held)]
    # DREP-seq and its weighted form: a held processor runs the job at 1
    return [min(c, 1.0) if h else 0.0 for c, h in zip(caps, held)]


POLICIES = [
    "srpt", "sjf", "swf", "fifo", "hdf", "wsrpt", "rr", "laps",
    "drep", "drep-par", "wdrep",
]


@st.composite
def instances(draw):
    m = draw(st.integers(1, 16))
    n = draw(st.integers(0, 40))

    def column(pool, size=n):
        return draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))

    ids = sorted(draw(st.sets(st.integers(0, 3 * n + 2), min_size=n, max_size=n)))
    work = column([0.5, 1.0, 2.0, 3.0, 7.5])
    remaining = [w * f for w, f in zip(work, column([1.0, 0.75, 0.5, 0.25]))]
    return dict(
        m=m,
        ids=ids,
        work=work,
        remaining=remaining,
        release=sorted(column([0.0, 1.0, 2.5, 4.0])),
        caps=column([float(m), m / 2, m / 3, 0.25 * m, min(1.0, float(m)), 0.5]),
        weights=column([0.5, 1.0, 2.0, 3.0], 3 * n + 3),
        beta=draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 0.75, 1.0])),
        seed=draw(st.integers(0, 2**16)),
    )


def _arrays(inst: dict) -> dict:
    return dict(
        job_ids=np.array(inst["ids"], dtype=np.int64),
        remaining=np.array(inst["remaining"], dtype=float),
        work=np.array(inst["work"], dtype=float),
        release=np.array(inst["release"], dtype=float),
        caps=np.array(inst["caps"], dtype=float),
    )


def _build(name: str, inst: dict) -> Policy:
    """The policy, with its weights set and — for the DREP family — every
    job admitted through its arrival hook, in id order."""
    kwargs = {"beta": inst["beta"]} if name == "laps" else {}
    policy = policy_by_name(name, **kwargs)
    policy.reset(inst["m"], np.random.default_rng(inst["seed"]))
    if hasattr(policy, "set_weights"):
        policy.set_weights(np.array(inst["weights"]))
    if name in ("drep", "drep-par", "wdrep"):
        arrays = _arrays(inst)
        for k, j in enumerate(inst["ids"]):
            prefix = {key: a[: k + 1] for key, a in arrays.items()}
            policy.on_arrival(j, ActiveView(t=0.0, m=inst["m"], **prefix))
    return policy


def _assert_close(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(abs(g), abs(w), 1.0), (got, want)


@pytest.mark.parametrize("name", POLICIES)
@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_rates_match_the_oracle(name, inst):
    policy = _build(name, inst)
    want = oracle(name, inst, policy)
    arrays = _arrays(inst)
    got = policy.rates_array(
        0.0, inst["m"], arrays["job_ids"], arrays["remaining"],
        arrays["work"], arrays["release"], arrays["caps"],
    )
    _assert_close(np.asarray(got, dtype=float).tolist(), want)
    if type(policy).rates_scalar is not Policy.rates_scalar:
        got = policy.rates_scalar(
            0.0, inst["m"], list(inst["ids"]), list(inst["remaining"]),
            list(inst["work"]), list(inst["release"]), list(inst["caps"]),
        )
        _assert_close(got, want)
