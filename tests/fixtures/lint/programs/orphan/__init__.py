# lint-fixture-path: src/repro/lint/rules/__init__.py
# lint-expect:
from . import rep901_demo  # noqa: F401 - registration side effect
