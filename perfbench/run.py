"""Benchmark of the qsep package: one workload per run, as a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 35 --trace 0

Workloads are ``fig3``, ``scan`` and ``point-queries`` (see README.md in
this directory). With ``--trace 0`` the run measures the end-to-end metrics:
CLI commands run as fresh ``python -m qsep`` processes with ``src`` on
PYTHONPATH, and the point queries call the library in this process. With
``--trace 1`` every command runs in process at ``--jobs 1``, alternating
untraced and traced rounds, and the per-layer metrics come from the spans of
the first traced round. Rounds repeat while another fits in ``--seconds``;
the end-to-end times are each operation's best over them. Each
output is checked against the references in ``oracles.py``, and an operation
with a wrong output, an exception or a non-zero exit counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the seed and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads as wl  # noqa: E402
from perfbench.tracing import MODULES, Tracer  # noqa: E402

SETUP_REPEATS = 21
IMPORT_REPEATS = 3
TRACE_JOBS = 1
RUN_LIMIT_S = 170
WORK_DIR = ROOT / "perfbench" / "out"
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import qsep.cli; "
                "sys.stdout.write(repr(time.perf_counter() - t))")


def _program_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_process(args: list[str], out_path: Path | None = None) -> wl.Op:
    """Run ``python ARGS`` in a fresh process; time it from spawn to exit.

    With ``out_path`` the output stays in that file and the operation holds
    the path; otherwise it holds the bytes.
    """
    keep = out_path is not None
    out_path, err_path = out_path or WORK_DIR / "stdout", WORK_DIR / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                cwd=ROOT, env=_program_env(), start_new_session=True)
        try:
            code = proc.wait()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        elapsed = perf_counter() - start
    if code != 0:
        tail = err_path.read_text(errors="replace")[-500:]
        return wl.Op(elapsed, error=f"exit {code}: {tail}")
    return wl.Op(elapsed, out_path if keep else out_path.read_bytes())


def run_cli(argv, out_path: Path | None = None) -> wl.Op:
    return run_process(["-m", "qsep", *argv], out_path)


def in_process_cli(cli):
    """Call ``cli.main(argv)`` in this process, capturing what it writes."""

    def call(argv) -> wl.Op:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception as exc:  # an exception is a failed operation
            return wl.Op(perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        if code != 0:
            return wl.Op(elapsed, error=f"exit {code}: {err.getvalue()[-500:]}")
        return wl.Op(elapsed, out.getvalue().encode("utf-8"))

    return call


def do_round(workload, inputs, call, jobs: int, qsep) -> list[wl.Op]:
    if workload.cli:
        return [call(argv) for argv in workload.argvs(inputs, jobs)]
    return workload.run(qsep, inputs, perf_counter)


def measure(seconds: float, step) -> list[list[wl.Op]]:
    """Repeat ``step`` (which returns rounds) while another fits in ``seconds``.

    A step is taken to last as long as the one before it. Only the first
    round keeps its outputs; later rounds keep their digests.
    """
    rounds = []
    start = last = perf_counter()
    step_s = 0.0
    while not rounds or last - start + step_s <= seconds:
        ops_list = step()
        now = perf_counter()
        step_s, last = now - last, now
        for ops in ops_list:
            if rounds:
                ops = [wl.Op(op.seconds, op.digest(), op.error) for op in ops]
            rounds.append(ops)
    return rounds


def check_rounds(workload, inputs, rounds) -> tuple[int, wl.Findings]:
    """Oracle-check the first round; later rounds must repeat it exactly."""
    first = rounds[0]
    findings = wl.Findings(problems=[[] for _ in first])
    try:
        workload.check(inputs, first, findings)
    except Exception as exc:  # a malformed output fails its round
        findings.problems = [[f"unreadable output: {type(exc).__name__}: {exc}"] for _ in first]
    findings.output_bytes = sum(len(op.output) for op in first if isinstance(op.output, bytes))
    digests = [op.digest() for op in first]
    failed = 0
    for n, ops in enumerate(rounds):
        for k, op in enumerate(ops):
            problems = list(findings.problems[k])
            if op.error is not None:
                problems.append(op.error)
            elif n > 0 and op.output != digests[k]:
                problems.append("output differs from the first round")
            if problems:
                failed += 1
                print(f"failed op {k} of round {n}: {'; '.join(problems)}", file=sys.stderr)
    return failed, findings


def best_times(rounds) -> tuple[float, list[float]]:
    """Each operation's fastest latency over the rounds, and their sum.

    The host's speed swings by up to 1.7x for seconds at a time, so a median
    over a run flips between its fast and slow phases; the best of several
    rounds reads the program's cost at the fast phase every run reaches.
    """
    best = [min(ops[k].seconds for ops in rounds) for k in range(len(rounds[0]))]
    return sum(best), best


def setup_ops(count: int) -> tuple[list[float], int]:
    """``count`` cold starts of a trivial ``qsep cond`` command, checked."""
    times, failed = [], 0
    for _ in range(count):
        op = run_cli(wl.SETUP_ARGV)
        times.append(op.seconds)
        try:
            bad = op.error is not None or wl.check_setup(op.output)
        except (ValueError, KeyError, TypeError) as exc:
            bad = [str(exc)]
        if bad:
            failed += 1
            print(f"failed set-up command: {op.error or bad}", file=sys.stderr)
    return times, failed


def import_seconds() -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        op = run_process(["-c", IMPORT_PROBE])
        if op.error is not None:
            raise RuntimeError(f"importing qsep.cli failed: {op.error}")
        times.append(float(op.output))
    return statistics.median(times)


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    inputs = workload.inputs(seed)
    qsep = None if workload.cli else importlib.import_module("qsep")
    setup_times, setup_failed = [], 0
    start = perf_counter()

    def cold_starts(count: int) -> None:
        nonlocal setup_failed
        times, failed = setup_ops(count)
        setup_times.extend(times)
        setup_failed += failed

    steps = 0

    def step() -> list[list[wl.Op]]:
        # A child records its parent's peak RSS as its own until it execs, so
        # outputs stay on disk until every command has run: the first round's
        # files are kept for the checks, and later rounds reuse theirs.
        nonlocal steps
        tag = min(steps, 1)
        files = (WORK_DIR / f"output-{tag}-{k}" for k in itertools.count())
        steps += 1
        ops = do_round(workload, inputs, lambda argv: run_cli(argv, next(files)), workload.jobs, qsep)
        # Cold starts are spread over the run, between rounds, so that their
        # median spans the same swings of the host's speed as the rounds do.
        share = min(1.0, (perf_counter() - start) / seconds) if seconds > 0 else 0.0
        cold_starts(math.ceil(SETUP_REPEATS * share) - len(setup_times))
        return [ops]

    rounds = measure(seconds, step)
    cold_starts(SETUP_REPEATS - len(setup_times))
    usage = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(usage).ru_maxrss
    harness_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rounds[0] = [wl.Op(op.seconds, op.output.read_bytes(), op.error)
                 if isinstance(op.output, Path) else op for op in rounds[0]]
    failed, findings = check_rounds(workload, inputs, rounds)
    wall, best = best_times(rounds)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "ops_per_s": findings.units / wall,
        "op_p50_ms": float(np.percentile(best, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(best, 90)) * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    samples = {"rounds": len(rounds), "ops_per_round": len(best), "setup_samples": len(setup_times),
               "round_wall_median_s": statistics.median(sum(op.seconds for op in ops) for ops in rounds),
               "harness_peak_rss_mb": harness_kb / 1024.0}
    attempted = sum(len(ops) for ops in rounds) + len(setup_times)
    return values, attempted, failed + setup_failed, samples


def traced(workload, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    import_s = import_seconds()
    import qsep
    import qsep.cli

    inputs = workload.inputs(seed)
    call = in_process_cli(qsep.cli)
    tracers: list[Tracer] = []
    pair_walls: list[tuple[float, float]] = []

    def pair() -> list[list[wl.Op]]:
        plain = do_round(workload, inputs, call, TRACE_JOBS, qsep)
        tracer = Tracer()
        with tracer.install(qsep):
            spanned = do_round(workload, inputs, call, TRACE_JOBS, qsep)
        if not tracers:
            tracers.append(tracer)
        pair_walls.append((sum(op.seconds for op in plain), sum(op.seconds for op in spanned)))
        return [spanned, plain]

    rounds = measure(seconds, pair)
    failed, findings = check_rounds(workload, inputs, rounds)
    tracer = tracers[0]
    tracer.write(WORK_DIR / f"spans-{workload.name}.csv")
    spans = tracer.summary()
    attempted = sum(len(ops) for ops in rounds)
    plain_wall = statistics.median(p for p, _ in pair_walls)
    traced_wall = statistics.median(t for _, t in pair_walls)
    op_calls = spans.get("criticality.order_parameter", {}).get("calls", 0)
    values = {
        "cli.import_s": import_s,
        "cli.output_bytes": findings.output_bytes,
        "criticality.order_parameter.found_frac": findings.found / op_calls if op_calls else 0.0,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
        "failed_frac": failed / attempted,
        "qI_max_rel_err": findings.qi_rel_err,
        "witness_max_abs_err": findings.witness_abs_err,
    }
    for verdict in ("entangled", "separable", "boundary"):
        values[f"separability.verdicts.{verdict}"] = findings.verdicts[verdict]
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            s["self_s"] for label, s in spans.items() if label.split(".")[0] == module)
    for label, stats in spans.items():
        for key in ("calls", "busy_s", "p50_us"):
            values[f"{label}.{key}"] = stats[key]
    samples = {"pairs": len(pair_walls), "spans": len(tracer.spans),
               "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return values, attempted, failed, samples


def select_metrics(values: dict, declared: list[dict]) -> dict:
    """Report exactly the metrics BENCHMARK.json declares, in its units.

    A span statistic (calls, busy_s, p50_us) of a function that was never
    called reads 0.
    """
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[-1] in ("calls", "busy_s", "p50_us"):
            value = 0
        else:
            raise KeyError(f"no value measured for metric {name!r}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsep" / "__init__.py").is_file():
        print(f"error: no qsep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workload = wl.WORKLOADS[args.workload]
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        run = traced if args.trace else end_to_end
        values, attempted, failed, samples = run(workload, args.seed, args.seconds)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    record = {"machine": machine(), "workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "jobs": TRACE_JOBS if args.trace else workload.jobs,
              "samples": samples}
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": select_metrics(values, declared)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
