"""randumb benchmark: one workload, end-to-end metrics or a traced
per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured run is a fresh child process (``child.py``) doing what
``randumb run`` does on files this benchmark generated from ``--seed``.
This process imports only the standard library and holds no large
buffer, because a child's peak RSS as the OS reports it (``os.wait4``)
starts from its parent's RSS at spawn time.

``--trace 0`` reports setup_s, run_s, peak_rss_mb, accuracy and
success_rate (medians over the run's children); ``--trace 1`` reports
the per-layer metrics of traced children plus the tracing overhead
against untraced children of the same invocation.  Every child's
outputs are checked; a failed check counts in ``failed``.  The last
stdout line is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

MAHALANOBIS_VARIANTS = ("randumb", "slda", "rp_relu")
SETUP_PROBES = 3  # setup-only children per untraced invocation
DEADLINE_S = 170  # the whole invocation, children included


def load_spec() -> dict:
    """BENCHMARK.json: the metrics this benchmark reports, their units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Invocation:
    """One benchmark invocation: a workload, a seed, its children and
    every failure found in them."""

    def __init__(self, name: str, seed: int, trace: bool, tiny: bool = False):
        spec = load_spec()
        self.units = {
            m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]
        }
        # a run whose accuracy is further than accuracy's bound from the
        # recorded value fails its check
        self.accuracy_tolerance = next(
            m["bound"] for m in spec["end_to_end"] if m["name"] == "accuracy"
        )
        self.ws = workloads.settings(name, tiny)
        self.seed = seed
        self.trace = trace
        self.tiny = tiny
        self.dir = WORK / f"{name}-s{seed}{'-tiny' if tiny else ''}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.children = 0
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )

    def spawn(self, mode: str, *extra: str):
        """Run child.py to completion; return (result or None, peak RSS MiB, t_spawn)."""
        self.children += 1
        out = self.dir / f"child-{self.children}.json"
        log = self.dir / f"child-{self.children}.log"
        cmd = [
            sys.executable, str(HERE / "child.py"), mode,
            "--settings", json.dumps(self.ws),
            "--seed", str(self.seed),
            "--dir", str(self.dir),
            "--out", str(out),
            *extra,
        ]
        with open(log, "wb") as log_fh:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log_fh, stderr=subprocess.STDOUT, env=self.env)
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        proc.kill()
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
                    time.sleep(0.02)
            except BaseException:  # e.g. KeyboardInterrupt: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mib = usage.ru_maxrss / 1024  # Linux reports KiB
        if proc.returncode != 0 or not out.exists():
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            self.failures.append(
                f"{mode} child {self.children} exited {proc.returncode}: "
                + " | ".join(tail)
            )
            return None, rss_mib, t_spawn
        return json.loads(out.read_text()), rss_mib, t_spawn

    def check(self, r: dict) -> list[str]:
        """Correctness problems in one full run's outputs."""
        ws, problems = self.ws, []
        expected = workloads.stream_length(ws)
        if r["observe_count"] != expected:
            problems.append(f"observe_count {r['observe_count']} != {expected}")
        classes = list(range(workloads.num_classes(ws)))
        if r["classes"] != classes:
            problems.append(f"per-class keys {r['classes'][:5]}... != 0..{classes[-1]}")
        acc, recorded = r["accuracy"], ws["accuracy"]
        if not 0.0 <= acc <= 1.0:
            problems.append(f"accuracy {acc} outside [0, 1]")
        if recorded is not None and abs(acc - recorded) > self.accuracy_tolerance * recorded:
            problems.append(
                f"accuracy {acc:.4f} differs from the recorded {recorded:.4f} by more "
                f"than {self.accuracy_tolerance:.0%}"
            )
        if ws["run"]["variant"] in MAHALANOBIS_VARIANTS:
            rho, log_det = r["rho"], r["log_det"]
            if rho is None or not 0.0 <= rho <= 1.0:
                problems.append(f"shrinkage rho {rho} outside [0, 1]")
            if log_det is None or not math.isfinite(log_det):
                problems.append(f"log_det {log_det} is not finite")
        return problems

    def measure(self, seconds: float) -> dict:
        """Prepare, then run children for ``seconds``; return the report."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        tiny = ("--tiny",) if self.tiny else ()
        prep, _, _ = self.spawn("prepare", *tiny)
        if prep is None:
            raise SystemExit("prepare failed: " + self.failures[-1])
        self.attempted += 1
        if prep["verify_failed"]:
            self.failures.append(f"randumb verify failed: {prep['verify_failed']}")

        setup_s, untraced, traced = [], [], []
        start = time.monotonic()
        if not self.trace:
            for _ in range(SETUP_PROBES):
                self.attempted += 1
                r, _, t_spawn = self.spawn("run", "--setup-only")
                if r is not None:
                    setup_s.append(r["t_call"] - t_spawn)
        # Untraced first, then alternate; at least one run of each kind.
        kinds = [False, True] if self.trace else [False]
        full_runs = 0
        while time.monotonic() - start < seconds or full_runs < len(kinds):
            if time.monotonic() > self.deadline:
                break
            traced_run = kinds[full_runs % len(kinds)]
            full_runs += 1
            self.attempted += 1
            r, rss_mib, t_spawn = self.spawn("run", "--trace", str(int(traced_run)))
            if r is None:
                continue
            problems = self.check(r)
            first = (untraced + traced)[:1]
            if first and r["accuracy"] != first[0]["accuracy"]:
                problems.append(
                    f"accuracy {r['accuracy']} differs from the invocation's first "
                    f"run's {first[0]['accuracy']}"
                )
            if problems:
                self.failures.append(
                    f"{'traced' if traced_run else 'untraced'} run: " + "; ".join(problems)
                )
                continue
            r["peak_rss_mb"] = rss_mib
            if traced_run:
                traced.append(r)
            else:
                setup_s.append(r["t_call"] - t_spawn)
                untraced.append(r)
        return self._report(prep, setup_s, untraced, traced)

    def _report(self, prep, setup_s, untraced, traced) -> dict:
        failed = len(self.failures)
        values = {}
        if self.trace:
            if traced:
                # the low median keeps counts, equal in every run, exact
                layers = {
                    key: statistics.median_low(r["layers"][key] for r in traced)
                    for key in traced[0]["layers"]
                }
                layers["data_io.load_bytes"] = prep["input_bytes"]
                if untraced:
                    layers["trace.overhead_s"] = layers["harness.run_s"] - statistics.median(
                        r["run_s"] for r in untraced
                    )
                layers["streaming.update_gbps_computed"] = _ratio(
                    layers["streaming.update_gb_computed"], layers["streaming.update_s"]
                )
                layers["precision.factor_gflops_computed"] = _ratio(
                    layers["precision.factor_gflop"], layers["precision.factor_s"]
                )
                layers["probe.triad_gbps"] = prep["probe"]["triad_gbps"]
                layers["probe.dgemm_gflops"] = prep["probe"]["dgemm_gflops"]
                values = {k: layers[k] for k in self.units if k in layers}
        else:
            if untraced:
                values = {
                    "setup_s": statistics.median(setup_s),
                    "run_s": statistics.median(r["run_s"] for r in untraced),
                    "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
                    "accuracy": statistics.median(r["accuracy"] for r in untraced),
                }
            values["success_rate"] = 1.0 - failed / self.attempted
        sample = (untraced + traced)[:1]
        return {
            "workload": self.ws,
            "seed": self.seed,
            "trace": int(self.trace),
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": failed,
            "failures": self.failures,
            "samples": {
                "setup_s": setup_s,
                "run_s": [r["run_s"] for r in untraced],
                "traced_run_s": [r["layers"]["harness.run_s"] for r in traced],
            },
            "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in values.items()},
            "provenance": {
                **prep["provenance"],
                "blas_threads_env": self.env["OPENBLAS_NUM_THREADS"],
                "blas_in_child": sample[0]["blas"] if sample else None,
                "accumulator_bytes": 8 * self.ws["run"]["embed_dim"] ** 2
                if self.ws["run"]["variant"] in MAHALANOBIS_VARIANTS else 0,
                "llc_bytes": prep["provenance"]["l3_bytes"],
                # part of every child's peak_rss_mb (the RSS at spawn is inherited)
                "orchestrator_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "generate_s": prep["generate_s"],
                "input_bytes": prep["input_bytes"],
            },
            "probe_computed": prep["probe"],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def print_report(report: dict) -> None:
    """Human-readable lines, then the provenance, then the result line."""
    ws = report["workload"]
    counts = ", ".join(f"{len(v)} {k}" for k, v in report["samples"].items())
    print(f"workload {ws['name']} seed {report['seed']} trace {report['trace']} "
          f"(samples: {counts})")
    for name, m in report["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if not report["trace"]:
        rate = report["failed"] / report["attempted"]
        print(f"  {'failure_rate':40s} {rate:>16.6g} fraction")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    print("provenance " + json.dumps(
        {"seed": report["seed"], "workload": ws, **report["provenance"],
         "probe_computed": report["probe_computed"]}
    ))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "randumb" / "__init__.py").is_file():
        print(f"error: no randumb source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    inv = Invocation(args.workload, args.seed, bool(args.trace))
    report = inv.measure(args.seconds)
    (inv.dir / "report.json").write_text(json.dumps(report, indent=1))
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
