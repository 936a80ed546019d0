"""spincorr benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload direct_chain --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  Every workload runs in fresh
worker processes:

- ``--trace 0``: one worker runs closed-loop jobs through
  ``spincorr.cli.main`` for ``--seconds`` (default: ``run_seconds`` in
  ``BENCHMARK.json``) and reports the median job wall time, the work
  rate and its peak RSS; after each job a fresh process
  times ``import spincorr`` plus ``load_model`` for ``setup_s`` (median,
  at least seven, after one discarded warm-up).
- ``--trace 1``: two count passes (must agree exactly), then one worker
  alternating untraced and traced jobs; spans wrapped around each layer's
  entry points give per-layer self times.

Every job's output is checked (see ``worker.py``), and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the run record
(machine, versions, BLAS thread cap, commit, seed, sample counts, every
job time); it is also written, with the spans of a traced run, to
``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, draw_params, model_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
COUNT_PASSES = 2
WORKER_TIMEOUT_S = 60  # beyond --seconds; one job takes a few seconds


class BenchmarkError(Exception):
    """The benchmark could not measure: no program, or a worker crashed."""


def worker_env() -> tuple:
    """Environment for every worker: only this tree's ``src`` importable,
    fixed string hashing, and BLAS threads pinned to the core count."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=str(nproc),
        OMP_NUM_THREADS=str(nproc),
    )
    return env, nproc


def spawn(env: dict, script: str, args: list, timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *map(str, args)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{script} {args[0]} did not finish in {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchmarkError(f"{script} exited with {proc.returncode}:\n{tail}")
    result = json.loads(lines[-1])
    module = result.get("info", {}).get("spincorr")
    if module is not None and not Path(module).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"worker imported spincorr from {module}, not {SRC}")
    return result


def self_times(spans: list) -> dict:
    """{job id: {span name: summed self seconds}}.  A span's self time is
    its duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, job) in enumerate(spans):
        per_job = out.setdefault(job, {})
        per_job[name] = per_job.get(name, 0.0) + (end - start) - child_time[i]
    return out


def untraced_metrics(env: dict, workload, workdir: Path, seed: int, seconds: float) -> tuple:
    res = spawn(
        env, "worker.py", ["jobs", workload.name, seed, workdir, seconds, 0],
        seconds + WORKER_TIMEOUT_S,
    )
    wall = statistics.median(res["walls"])
    metrics = {
        "wall_s": wall,
        "values_per_s": workload.values / wall,
        "setup_s": statistics.median(res["setups"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    samples = {"wall_s": len(res["walls"]), "values_per_s": len(res["walls"]),
               "setup_s": len(res["setups"]), "peak_rss_mb": 1}
    return metrics, samples, res, []


# span name of each self-time metric
SPAN_METRICS = {
    "cli.self_s": "cli",
    "modelfile.load_s": "modelfile.load",
    "fields.bounds_s": "fields.bounds",
    "checks.env_gate_s": "checks.env_gate",
    "solver.domain_s": "solver.domain",
    "solver.materialize_s": "solver.materialize",
    "solver.iterate_s": "solver.iterate",
    "solver.matvec_s": "solver.matvec",
    "solver.direct_s": "solver.direct",
    "solver.certificate_s": "solver.certificate",
    "exact.enumerate_s": "exact.enumerate",
    "exact.oracle_s": "exact.oracle",
    "exact.table_io_s": "exact.table_io",
}
COUNT_METRICS = (
    "solver.row_nnz", "solver.memo_entries", "solver.unknowns",
    "solver.matvec_calls", "solver.iterations", "solver.direct_bytes",
    "solver.truncation_tail", "exact.walker_steps", "fields.eval_calls",
    "parallel.blocks", "parallel.pool_blocks", "checks.env_instances",
)


def traced_metrics(env: dict, workload, workdir: Path, seed: int, seconds: float) -> tuple:
    passes = [
        spawn(env, "worker.py", ["count", workload.name, seed, workdir], WORKER_TIMEOUT_S)
        for _ in range(COUNT_PASSES)
    ]
    problems = [f"count pass exit code {p['code']}: {p['error']}" for p in passes if p["code"] != 0]
    counts = passes[0]["counts"]
    if any(p["counts"] != counts for p in passes):
        differ = sorted(k for k in counts if any(p["counts"][k] != counts[k] for p in passes))
        problems.append(f"benchmark broken: counts differ between count passes: {differ}")

    res = spawn(
        env, "worker.py", ["jobs", workload.name, seed, workdir, seconds, 1],
        seconds + WORKER_TIMEOUT_S,
    )
    per_job = self_times(res["spans"]).values()
    metrics = {
        metric: statistics.median(job.get(span, 0.0) for job in per_job)
        for metric, span in SPAN_METRICS.items()
    }
    metrics.update({name: counts[name] for name in COUNT_METRICS})
    enumerated = counts["solver.j_terms_enumerated"]
    metrics["solver.row_yield"] = counts["solver.j_terms_nonzero"] / enumerated if enumerated else 0.0
    reads = counts["solver.matvec_calls"] * counts["solver.row_nnz"]
    metrics["solver.matvec_ns_per_nnz"] = metrics["solver.matvec_s"] * 1e9 / reads if reads else 0.0
    metrics["trace.overhead_s"] = (
        statistics.median(res["traced_walls"]) - statistics.median(res["walls"])
    )
    samples = {name: len(per_job) for name in SPAN_METRICS}
    samples.update({name: COUNT_PASSES for name in COUNT_METRICS})
    samples["solver.row_yield"] = COUNT_PASSES
    samples["solver.matvec_ns_per_nnz"] = [len(per_job), COUNT_PASSES]
    samples["trace.overhead_s"] = [len(res["walls"]), len(res["traced_walls"])]
    res["counts"] = counts
    res["attempted"] += len(passes)
    res["failed"] += sum(p["code"] != 0 for p in passes)
    return metrics, samples, res, problems


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def bench(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = WORKLOADS[name]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    env, nproc = worker_env()
    workdir = WORK / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        (workdir / "model.model").write_text(model_text(draw_params(workload, seed)))
        measure = traced_metrics if trace else untraced_metrics
        metrics, samples, res, problems = measure(env, workload, workdir, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(declared):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "command": ["spincorr", *workload.args],
        "window_sites": workload.sites,
        "values": workload.values,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "model": model_text(draw_params(workload, seed)),
        "seconds": seconds,
        "nproc": nproc,
        "blas_thread_cap": nproc,
        **res["info"],
        **source_record(),
        "metrics": metrics,
        "samples": samples,
        "job_walls_s": res["walls"],
        "setups_s": res.get("setups"),
        "traced_job_walls_s": res["traced_walls"],
        "counts": res.get("counts"),
        "failures": res["failures"],
        "problems": problems,
        "notes": "solver.direct_bytes is computed from the array shape, not measured",
    }
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(res["spans"]) + "\n")
    return {
        "correct": res["failed"] == 0 and not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in sorted(metrics.items())},
        "record": record,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spincorr" / "__init__.py").is_file():
        print(f"error: no spincorr sources under {SRC}", file=sys.stderr)
        return 2
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("error: workloads in BENCHMARK.json and workloads.py differ", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: bench(n, args.seed, args.seconds, bool(args.trace), spec) for n in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, r in results.items():
        for problem in r["record"]["problems"] + [f["reason"] for f in r["record"]["failures"]]:
            print(f"{name}: FAIL {problem}")
        samples = r["record"]["samples"]
        for metric, m in r["metrics"].items():
            print(f"{name} {metric} = {m['value']!r} {m['unit']} (n={samples[metric]})")
        print(f"{name} error_rate = {r['failed'] / r['attempted']!r} ({r['failed']}/{r['attempted']} jobs)")
        print(f"{name} run_record = {json.dumps(r['record'], sort_keys=True)}")
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
