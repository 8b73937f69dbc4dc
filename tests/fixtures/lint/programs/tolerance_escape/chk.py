# lint-fixture-path: src/repro/core/chk.py
# lint-expect: REP001@8 REP001@13
from repro.core.dmd import demand, demand_via_chain
from repro.core.model import leq


def admits(tasks, horizon, capacity: float) -> bool:
    return demand(tasks, horizon) <= capacity


def admits_chain(tasks, horizon, capacity: float) -> bool:
    # the float evidence is two return-hops away
    return demand_via_chain(tasks, horizon) >= capacity


def admits_tolerant(tasks, horizon, capacity: float) -> bool:
    # routed through the tolerance helper: clean
    return leq(demand(tasks, horizon), capacity)


def validate(tasks, horizon, capacity: float) -> None:
    # guard-raise exemption holds across modules too
    if demand(tasks, horizon) <= capacity:
        raise ValueError("infeasible")
