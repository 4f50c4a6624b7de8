"""Check the result line of one benchmark run.

Usage: tail -n 1 bench.out | python3 .github/check_bench_line.py SECTION

Exits non-zero unless the line read from stdin is a JSON result with
``correct: true`` that carries, non-null, every metric BENCHMARK.json
declares under SECTION (``end_to_end`` for a plain run, ``per_layer`` for a
``--trace 1`` run).
"""

import json
import sys
from pathlib import Path

section = sys.argv[1]
spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
try:
    line = json.loads(sys.stdin.read())
except json.JSONDecodeError as err:
    sys.exit(f"the last line is not a JSON result: {err}")
problems = [] if line.get("correct") is True else ["correct is not true"]
metrics = line.get("metrics", {})
for metric in spec[section]:
    if (metrics.get(metric["name"]) or {}).get("value") is None:
        problems.append(f"metric {metric['name']} is missing or null")
sys.exit("\n".join(problems) or None)
