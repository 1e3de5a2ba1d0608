"""kppwaves benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  README.md in this
directory describes the workloads, metrics and checks.

The process that prints the result only orchestrates.  Each set-up sample
and the workload itself run in a fresh interpreter (``--role``), so that
``setup_s`` covers interpreter start and imports, and ``peak_rss_mb`` is the
workload process's own.

Times are CPU seconds (user + system) of the process doing the work; the
times of the operations are also scaled by a reference loop run next to
them (``workloads.reference_s``).  On a shared 2-core host other tenants
stretched wall time by up to 1.7x, and moved the CPU time of the same work
by up to 40 % over minutes.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5        # fresh interpreters whose set-up time gives the median
MIN_ROUNDS = 2           # rounds are compared byte for byte
DEADLINE_S = 170.0


def _parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "profiles", "advect"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="scaled CPU seconds of whole rounds to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--rundir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# --- child processes ---------------------------------------------------------------

def _set_up(args):
    """Imports, inputs from the seed, and (advect) the shoot run that makes
    the input profiles.  Returns (cli module, timed jobs, run directory)."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from kppwaves import cli
    import workloads

    rundir = Path(args.rundir)
    prep, jobs = workloads.make_jobs(args.workload, args.seed)
    workloads.write_configs(prep + jobs, rundir)
    if workloads.run_round(cli, prep, rundir)[0]:
        raise SystemExit("set-up: the shoot run that makes the advect profiles failed")
    # CPU time since the interpreter started: start-up, imports, inputs.  Not
    # scaled: the reference loop does not track import cost
    print(json.dumps({"setup_s": time.process_time()}), flush=True)
    return cli, jobs, rundir


def _round_s(times) -> float:
    """Mean time of a round."""
    return sum(map(sum, times)) / len(times)


def _timed(cli, jobs, rundir, seconds, tracer=None):
    """Whole rounds until ``seconds`` CPU seconds of untraced rounds pass.

    With a tracer every untraced round is followed by a traced one, so both
    see the same machine.  Returns (untraced and traced job times per round,
    failed operations, output digests); the digests are taken outside the
    timed calls.
    """
    from checks import output_digest
    from workloads import run_round

    plain, traced, failed, digests = [], [], 0, set()
    while True:
        f, t = run_round(cli, jobs, rundir, calibrate=True)
        failed += f
        plain.append(t)
        digests.add(output_digest(rundir))
        if tracer is not None:
            tracer.install()
            try:
                with tracer.round():
                    f, t = run_round(cli, jobs, rundir, calibrate=True)
            finally:
                tracer.uninstall()
            failed += f
            traced.append(t)
            digests.add(output_digest(rundir))
        if len(plain) >= MIN_ROUNDS and sum(map(sum, plain)) >= seconds:
            return plain, traced, failed, digests


def _worker(args) -> dict:
    import resource

    from checks import check_run

    cli, jobs, rundir = _set_up(args)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    plain, traced, failed, digests = _timed(cli, jobs, rundir, args.seconds, tracer)
    result = {
        "rounds": len(plain) + len(traced),
        "ops_per_round": sum(len(job.speeds) for job in jobs),
        "round_s": _round_s(plain),
        "failed_ops": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    problems = []
    if tracer is not None:
        from tracing import layer_metrics
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv")
        result["layers"], problems = layer_metrics(
            tracer.per_round(), _round_s(traced) - result["round_s"])
    if len(digests) != 1:
        problems.append(f"outputs differ between rounds ({len(digests)} distinct digests)")
    try:
        problems += check_run(args.workload, jobs, rundir)
    except (OSError, KeyError, ValueError, TypeError) as e:
        problems.append(f"outputs could not be checked: {type(e).__name__}: {e}")
    result["problems"] = problems
    return result


# --- orchestration -------------------------------------------------------------------

def _spawn(args, role: str, rundir: Path, deadline: float) -> tuple[float, dict | None]:
    """Run one child to its end; (set-up seconds, its result or None)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rundir", str(rundir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the {role} process exited with {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return lines[0]["setup_s"], (lines[1] if len(lines) > 1 else None)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role == "setup":
        _set_up(args)
        return 0
    if args.role == "worker":
        print(json.dumps(_worker(args)), flush=True)
        return 0

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "kppwaves" / "cli.py").is_file():
        print(f"error: no kppwaves sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile first, so no set-up sample pays for it
    if not (compileall.compile_dir(str(SRC), quiet=1)
            and compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)):
        print("error: the sources do not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    def rundir(k: int) -> Path:
        return OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}-{k}"

    setups = []
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            setups.append(_spawn(args, "setup", rundir(k), deadline)[0])
    setup, res = _spawn(args, "worker", rundir(SETUP_SAMPLES), deadline)
    setups.append(setup)

    ops = res["rounds"] * res["ops_per_round"]
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "speeds_per_s": {"value": res["ops_per_round"] / res["round_s"],
                             "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds of "
          f"{res['ops_per_round']} speeds; "
          + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()))
    print(json.dumps({"correct": not res["problems"], "attempted": ops,
                      "failed": res["failed_ops"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
