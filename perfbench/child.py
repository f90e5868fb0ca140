"""One child process of the benchmark.

``prepare``: write the workload's files, run ``randumb.run_verify`` and
the machine probe, and record provenance; nothing here is timed as part
of a workload.

``run``: do what ``randumb run`` does -- ``load_dataset`` on the
prepared files, then ``run_on_dataset`` -- and time each call from
outside.  With ``--trace 1`` the layers are wrapped by ``spans.Tracer``
first.  ``--setup-only`` stops at the call into ``run_on_dataset``.

Each mode writes one JSON object to ``--out``.  The orchestrator
stamps the spawn time; ``t_call`` is taken on the same monotonic clock.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_randumb():
    sys.path.insert(0, str(ROOT / "src"))
    import randumb

    # Never measure an installed copy instead of the checkout's source.
    if not Path(randumb.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"randumb imported from {randumb.__file__}, not {ROOT / 'src'}")
    return randumb


def prepare(args) -> dict:
    import machine
    import workloads

    ws = json.loads(args.settings)
    start = time.perf_counter()
    files = workloads.generate(ws, args.seed, Path(args.dir))
    generate_s = time.perf_counter() - start
    randumb = _import_randumb()
    reports = randumb.run_verify(seed=args.seed)
    info = machine.provenance(ROOT)
    return {
        "generate_s": generate_s,
        "input_bytes": sum(f.stat().st_size for f in files),
        "verify_failed": [r.name for r in reports if not r.passed],
        "provenance": info,
        "probe": machine.probe(info["l3_bytes"], tiny=args.tiny),
    }


def run(args) -> dict:
    ws = json.loads(args.settings)
    randumb = _import_randumb()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    data = randumb.load_dataset(ws["dataset"], args.dir)
    out = {"t_call": time.monotonic()}
    if args.setup_only:
        return out
    start = time.perf_counter()
    result = randumb.run_on_dataset(data, seed=args.seed, **ws["run"])
    out["run_s"] = time.perf_counter() - start

    import machine

    out.update(
        accuracy=result.average_accuracy,
        observe_count=result.observe_count,
        classes=sorted(result.per_class_accuracy),
        rho=result.shrinkage_rho,
        log_det=result.log_det,
        blas=machine.blas_info(),
    )
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.dump(Path(args.out).with_suffix(".spans.jsonl"))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("prepare", "run"))
    parser.add_argument("--settings", required=True, help="workload settings as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="the workload's data directory")
    parser.add_argument("--out", required=True, help="write the JSON result here")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    out = prepare(args) if args.mode == "prepare" else run(args)
    Path(args.out).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
