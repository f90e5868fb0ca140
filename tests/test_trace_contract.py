"""The benchmark's layer trace still finds the names it wraps.

``perfbench/spans.py`` substitutes randumb's functions and methods by
name, so renaming or deleting one of them silently zeroes its layer.
A tiny traced run of every embedded Mahalanobis and kernel variant must
report only layers that ``BENCHMARK.json`` declares, with the embed,
predict and factor layers all non-zero.  The run happens in a child
process, so the tracer's substitutions never reach the rest of the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import numpy as np
import spans
from randumb import dataset_from_features, run_on_dataset

tracer = spans.Tracer()
tracer.install()
rng = np.random.default_rng(0)
X = rng.standard_normal((60, 8)).astype(np.float32)
y = np.arange(60) % 3
data = dataset_from_features(X, y, X[:30], y[:30])
for variant in ("randumb", "rp_relu", "kernel_ncm"):
    run_on_dataset(data, variant=variant, embed_dim=32, gamma=0.5, seed=1)
print(json.dumps(tracer.summary()))
"""


def test_trace_reports_declared_layers_and_reaches_every_hot_path():
    script = CHILD.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    declared = {
        layer["name"]
        for layer in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    assert set(summary) <= declared, sorted(set(summary) - declared)
    for name in (
        "fourier.embed_rows",
        "classifier.relu_embed_rows",
        "classifier.predict_rows",
        "precision.factor_s",
    ):
        assert summary[name] > 0, name
