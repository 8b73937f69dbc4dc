# lint-fixture-path: src/repro/analysis/profiles.py
# lint-expect: REP011@20
_LOOKUP_HITS = 0


def lookup(key, memo):
    # clean: filling the caller's memo parameter is bookkeeping
    global _LOOKUP_HITS
    if key in memo:
        _LOOKUP_HITS += 1
        return memo[key]
    memo[key] = value = key * 2
    return value


def lookup_into(key, out):
    # `out` is not memo-named: writing it mutates the caller's state
    global _LOOKUP_HITS
    out[key] = key * 2
    _LOOKUP_HITS += 1
    return out[key]
