"""One benchmark process: the timed jobs, or the count pass.

Started by ``run.py`` with ``src`` on PYTHONPATH; prints one JSON object
as its last line of standard output.

    worker.py jobs <workload> <seed> <workdir> <seconds> <traced 0|1>
    worker.py count <workload> <seed> <workdir>
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import traceback

import spincorr
from spincorr import cli

# ``reference`` and ``run_info`` import numpy, which spincorr loads only for
# the dense direct solve; they are imported after ``ru_maxrss`` is read so
# that the reported peak RSS is the program's own.
import tracing
from workloads import WORKLOADS, draw_params, job_argv

CHAIN_TOL = {"direct_chain": 1e-10, "exact_chain": 1e-12}
DIRECT_DEVIATION_TOL = 1e-10
SETUP_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
MIN_SETUP_PROBES = 7


def setup_probe(model_path: str) -> float:
    """Set-up seconds of a fresh process, which must import this spincorr."""
    proc = subprocess.run(
        [sys.executable, SETUP_PROBE, model_path],
        capture_output=True, text=True, timeout=60, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.realpath(result["module"]) != os.path.realpath(spincorr.__file__):
        raise RuntimeError(f"set-up probe imported {result['module']}")
    return result["setup_s"]


def run_job(argv: list, out_path: str, around=contextlib.nullcontext) -> dict:
    """One closed-loop job: cli.main from call to return, stdout captured;
    `around` is entered just outside the call."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            with around():
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code, error = None, traceback.format_exc()
        wall = time.perf_counter() - start
    digest = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {"wall_s": wall, "code": code, "error": error, "stdout": buf.getvalue(),
            "out": digest}


def check_output(workload, params, stdout: str, out_path: str) -> str | None:
    """None when the output is correct, else the reason it is not."""
    import reference

    _, rows = reference.read_table(out_path)
    expected = reference.chain_correlations(workload.sites, params.coupling, params.onebody)
    worst = reference.chain_deviation(rows, expected)
    if not worst <= CHAIN_TOL[workload.name]:
        return f"max |table - transfer matrix| = {worst!r}"
    if workload.name == "direct_chain":
        found = re.search(r"^direct_deviation = (\S+)$", stdout, re.M)
        dev = float(found.group(1)) if found else math.inf
        if not dev <= DIRECT_DEVIATION_TOL:
            return f"direct_deviation = {dev!r}"
    return None


def run_info() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "spincorr": spincorr.__file__,
    }


def jobs(name: str, seed: int, workdir: str, seconds: float, traced: bool) -> dict:
    """Closed-loop jobs for `seconds`.

    Untraced runs time a fresh set-up probe after each job, so set-up and
    job times sample the same stretches of a shared machine's speed.
    Traced runs alternate untraced and traced jobs for the same reason."""
    workload = WORKLOADS[name]
    params = draw_params(workload, seed)
    model_path = os.path.join(workdir, "model.model")
    out_path = os.path.join(workdir, "out.csv")
    argv = job_argv(workload, model_path, out_path)
    tracer = tracing.Tracer()
    results = []
    first_out = os.path.join(workdir, "first.csv")
    setups = []
    if not traced:
        setup_probe(model_path)  # warm-up: writes the bytecode caches
    start = time.perf_counter()
    while True:
        use_trace = traced and len(results) % 2 == 1
        result = run_job(argv, out_path, tracer.job_span if use_trace else contextlib.nullcontext)
        result["traced"] = use_trace
        results.append(result)
        if result["code"] == 0 and result["out"] and not os.path.exists(first_out):
            os.replace(out_path, first_out)
        if not traced:
            setups.append(setup_probe(model_path))
        if time.perf_counter() - start >= seconds and len(results) >= (2 if traced else 1):
            break
    while not traced and len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe(model_path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Full check on the first job that wrote a table; every job must then
    # reproduce its exit code, stdout and table bytes exactly.
    good = next((r for r in results if r["code"] == 0 and r["out"]), None)
    problem = "no job succeeded" if good is None else None
    if good is not None:
        try:
            problem = check_output(workload, params, good["stdout"], first_out)
        except (OSError, ValueError) as exc:
            problem = f"unreadable output: {exc}"
    failures = []
    for i, r in enumerate(results):
        if problem is not None:
            reason = problem if r["code"] == 0 else (r["error"] or f"exit code {r['code']}")
        elif r["code"] != 0 or r["out"] != good["out"] or r["stdout"] != good["stdout"]:
            reason = r["error"] or f"exit code {r['code']} or output differs from job 0"
        else:
            continue
        failures.append({"job": i, "reason": reason.strip().splitlines()[-1]})

    untraced = [r["wall_s"] for r in results if not r["traced"]]
    traced_walls = [r["wall_s"] for r in results if r["traced"]]
    out = {
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:5],
        "walls": untraced,
        "setups": setups,
        "traced_walls": traced_walls,
        "peak_rss_mb": peak_rss_mb,
        "info": run_info(),
    }
    if traced:
        out["spans"] = tracer.spans
    return out


def count(name: str, seed: int, workdir: str) -> dict:
    """The count pass: one untimed job with the inner calls wrapped."""
    workload = WORKLOADS[name]
    out_path = os.path.join(workdir, "count.csv")
    counter = tracing.Counter()
    with counter.installed():
        result = run_job(job_argv(workload, os.path.join(workdir, "model.model"), out_path), out_path)
    counts = dict(counter.counts)
    tail = 0.0
    if result["out"] is not None:
        import reference

        headers, _ = reference.read_table(out_path)
        tail = float(headers.get("truncation_tail", "0.0"))
    counts["solver.truncation_tail"] = tail
    return {"counts": counts, "code": result["code"], "error": result["error"]}


def main(argv: list) -> dict:
    mode = argv[0]
    if mode == "jobs":
        name, seed, workdir, seconds, traced = argv[1:]
        return jobs(name, int(seed), workdir, float(seconds), traced == "1")
    if mode == "count":
        name, seed, workdir = argv[1:]
        return count(name, int(seed), workdir)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
