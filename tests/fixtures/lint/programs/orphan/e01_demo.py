# lint-fixture-path: src/repro/lint/rules/rep901_demo.py
# lint-expect:
REGISTERED = True
