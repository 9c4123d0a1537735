"""Force the flowsim engine onto one of its paths, by capability.

The engine picks its paths from what a policy *class* overrides — the
vectorized ``rates_array`` hook and its sparse ``rates_array_patch``
complement — and from the run itself: ``step()`` always handles one
event, while ``drain()`` / ``advance_to()`` fold whole runs of events
where the run allows it.  The equivalence suites use these helpers to run
the remaining path of the same policy against the goldens and against
the default run.
"""

from __future__ import annotations

import types

from repro.flowsim.engine import _ADMIT_TOL, FlowStepper
from repro.flowsim.policies import policy_by_name
from repro.flowsim.policies.base import Policy


def _hide(policy: Policy, **defaults) -> Policy:
    """``policy`` re-classed as a subclass whose listed methods are the
    :class:`Policy` defaults again."""
    cls = type(policy)
    policy.__class__ = type(cls.__name__, (cls,), defaults)
    return policy


def object_path(policy: Policy | str) -> Policy:
    """``policy`` served through ``rates(view)``: ``rates_array`` and
    ``rates_array_patch`` reset to the :class:`Policy` defaults."""
    if isinstance(policy, str):
        policy = policy_by_name(policy)
    twin = type(policy).rates_array
    _hide(
        policy,
        rates_array=Policy.rates_array,
        rates_array_patch=Policy.rates_array_patch,
    )
    # LAPS and DREP-par compute rates(view) by feeding the view's arrays
    # to their own vectorized twin; keep it callable on the instance —
    # the engine judges capability by class, so it still takes rates(view)
    policy.rates_array = types.MethodType(twin, policy)
    return policy


def unpatched(policy: Policy | str) -> Policy:
    """``policy`` without ``rates_array_patch``: folded passes rebuild the
    rate vector in full at every decision point."""
    if isinstance(policy, str):
        policy = policy_by_name(policy)
    return _hide(policy, rates_array_patch=Policy.rates_array_patch)


def step_through(stepper: FlowStepper) -> None:
    """What :meth:`FlowStepper.drain` does, one event per call."""
    while not stepper.drained:
        stepper.step()


def step_to(stepper: FlowStepper, horizon: float) -> None:
    """What :meth:`FlowStepper.advance_to` does, one event per call."""
    while stepper.now * (1 + _ADMIT_TOL) < horizon:
        if not stepper.step(horizon):
            break
