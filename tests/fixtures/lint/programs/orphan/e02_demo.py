# lint-fixture-path: src/repro/lint/rules/rep902_demo.py
# lint-expect: REP009@1
REGISTERED = True
