# lint-fixture-path: src/repro/core/us_test.py
# lint-expect: REP014@7
from repro.core.us_demand import total_demand


def fits_bad(tasks, t):
    return total_demand(tasks) < t


def fits_normalized(tasks, t, speed):
    # work divided by speed is a time: clean
    return total_demand(tasks) / speed < t
