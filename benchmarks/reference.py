"""Fixed reference task that gauges the machine's speed during a run.

It runs next to every planwise invocation and never imports planwise: a
fresh interpreter imports numpy, parses CSV-like text into dicts, sorts and
bisects columns, does small numpy products and dumps JSON -- the same kinds
of work as the CLI workloads, always the same amount. On a shared machine
both slow down together, so the ratio of a workload's time to the reference
time measured beside it is far steadier than either alone.
"""

import bisect
import json
import math
import random

import numpy as np

rng = random.Random(0)
rows = [[rng.lognormvariate(2.0, 1.0) for _ in range(20)] for _ in range(2500)]
text = "\n".join(",".join(f"{v:.4f}" for v in row) for row in rows)
parsed = [[float(cell) for cell in line.split(",")] for line in text.splitlines()]
records = [
    {"name": f"C{i}", "metrics": dict(enumerate(row)), "defective": row[0] > 9.0}
    for i, row in enumerate(parsed)
]
acc = 0.0
for col in range(20):
    values = sorted(r["metrics"][col] for r in records)
    cuts = values[::50]
    for r in records:
        acc += bisect.bisect_left(cuts, r["metrics"][col])
    p = sum(r["defective"] for r in records) / len(records)
    acc -= p * math.log2(p) if 0.0 < p < 1.0 else 0.0
for row in parsed[:300]:
    x = np.asarray(row)
    acc += float(x @ x)
doc = [
    {"class_name": r["name"], "actions": {str(k): {"action": "."} for k in range(20)}}
    for r in records[:800]
]
json.dumps(doc, indent=2, sort_keys=True)
