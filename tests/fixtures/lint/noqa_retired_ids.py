# lint-fixture-path: src/repro/core/fixture_noqa_retired.py
# lint-expect:
# repro: noqa-file[REP004, REP010] — the retired REP010 is reported unused
EPS = 1e-9


def admits(load: float, speed: float) -> bool:
    # REP001 matches; the retired REP007 beside it is reported unused
    return load <= speed  # repro: noqa[REP001, REP007]


def total(utilizations: list[float]) -> float:
    acc = 0.0
    for u in utilizations:
        acc += u
    return acc
