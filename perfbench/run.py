"""Benchmark of the bardina-strip package, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workloads are defined in
``workloads.py``; each runs in processes of its own, started here with
``src`` on ``PYTHONPATH``:

* ``decay_observed`` and ``fine_forced`` run in one worker process
  (``worker.py``) that repeats ``solver.run`` on a generated config;
* ``cli_mms`` and ``cli_decay`` start ``python -m bardina_strip run`` once per
  invocation: the full config every round, and every third round also the
  same config with zero steps (set-up only).

Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) report the per-layer metrics from spans that ``tracer.py``
records around the package's public functions, plus the tracing overhead.
Every repetition's output is checked; a failed check or exit code counts in
``failed``.  The last line of standard output is one JSON object; the lines
before it print every metric with its unit, ``failed_frac``, the
environment and each layer's self time.  A record of the run, with the raw
samples, is written to ``.perfbench/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import workloads
from launcher import IMPORT_BEGIN, IMPORT_END
from tracer import LAYERS, layer_self_times, load_spans, parse_importtime, rep_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
RUN_BUDGET_S = 170.0  # every child of one run must end within this
# Every workload process runs single-threaded BLAS.  On a 2-vCPU VM the
# OpenBLAS helper thread spins on the second CPU after each call, and the
# timings then follow whatever else runs there: the run-to-run spread of
# decay_observed's steps_per_s fell from 10 % to 3 % with one thread.
BLAS_THREADS = "1"
SETUP_EVERY = 3  # CLI workloads time a zero-step invocation every third round

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
              "peak_rss_mib": "MiB"}
PER_LAYER = {
    "solver.setup_s": "s", "solver.factorize_s": "s", "solver.lu_nnz": "count",
    "solver.step_ms": "ms", "solver.lu_solve_ms": "ms",
    "fft.transforms_per_step": "1/step", "fft.ms_per_step": "ms/step",
    "operators.calls_per_step": "1/step", "operators.ms_per_step": "ms/step",
    "diagnostics.record_ms": "ms", "diagnostics.modulus_add_ms": "ms",
    "diagnostics.collector_init_ms": "ms",
    "weights.make_weight_field_ms": "ms",
    "mms.derive_s": "s", "mms.forcing_eval_ms": "ms", "mms.forcing_evals": "count",
    "runio.load_config_ms": "ms", "runio.write_timeseries_ms": "ms",
    "runio.write_snapshot_ms": "ms", "runio.bytes_written": "bytes",
    "cli.import_s": "s", "cli.import_sympy_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing package, config or worker)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    returncode: int
    wall: float
    maxrss_mib: float
    stderr: str


def run_child(cmd, env, deadline: float, logs: Path) -> Child:
    """Run ``cmd`` to completion; wall time and peak RSS of that process."""
    err_path = logs / "child.err"
    reaped = []
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        # wait4 rather than Popen.wait: it also returns this child's rusage.
        reaper = threading.Thread(
            target=lambda: reaped.append(os.wait4(proc.pid, 0)), daemon=True)
        reaper.start()
        reaper.join(max(deadline - time.monotonic(), 0.0))
        wall = time.perf_counter() - t0
        if not reaped:
            proc.kill()
            reaper.join()
            raise BenchError(f"{' '.join(cmd)} did not end within the run budget")
    _pid, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 err_path.read_text(errors="replace"))


def child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


# ---------------------------------------------------------------------------
# Running the workloads
# ---------------------------------------------------------------------------

def run_inprocess(wl, inputs, args, work: Path, deadline: float) -> dict:
    out = work / "worker.json"
    spans = WORK / f"{wl.name}.spans.json"
    cmd = [sys.executable, str(HERE / "worker.py"), wl.name, str(inputs["cfg"]),
           str(args.seconds), str(args.trace), "1" if args.tiny else "0",
           str(out), str(spans)]
    child = run_child(cmd, child_env(), deadline, work)
    if child.returncode != 0 or not out.exists():
        raise BenchError(f"worker exited with {child.returncode}:\n{child.stderr[-2000:]}")
    result = json.loads(out.read_text())
    reps = result["reps"]
    failures = [f for r in reps for f in r["failures"]]
    failed = sum(bool(r["failures"]) for r in reps)
    # A repetition that ran to the end is timed even if a check failed:
    # the JSON line then says correct = false.
    plain = [r["timing"] for r in reps if r["timing"] and r["phase"] == "plain"]
    traced = [r["timing"] for r in reps if r["timing"] and r["phase"] == "traced"]
    e2e = {}
    if plain:
        e2e = {key: statistics.median(t[key] for t in plain)
               for key in ("wall_s", "setup_s", "steps_per_s")}
        # As of the first repetition: later ones add only allocator
        # fragmentation, which varies from run to run.
        e2e["peak_rss_mib"] = plain[0]["peak_rss_mib"]
    layer, self_times = {}, {}
    if args.trace and traced and plain:
        by_rep = load_spans(spans)
        traced_ids = [i for i, r in enumerate(reps)
                      if r["phase"] == "traced" and r["timing"]]
        per_rep = [rep_metrics(by_rep.get(i, []), wl.steps) for i in traced_ids]
        layer = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        layer["cli.import_s"] = layer["cli.import_sympy_s"] = 0.0
        layer["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                     - e2e["wall_s"])
        self_times = layer_self_times(by_rep.get(traced_ids[-1], []))
    return {"attempted": len(reps), "failed": failed, "failures": failures,
            "end_to_end": e2e, "per_layer": layer, "layer_self_s": self_times, "samples": reps}


def run_cli(wl, inputs, args, work: Path, deadline: float) -> dict:
    env = child_env()
    spans = WORK / f"{wl.name}.spans.json"
    plain = [sys.executable, "-m", "bardina_strip", "run"]
    launcher = [sys.executable, "-X", "importtime", str(HERE / "launcher.py"),
                str(spans), "run"]
    commands = {"setup": plain, "full": plain, "traced": launcher}

    def round_kinds(i):
        if args.trace:
            return ["full", "traced"]
        # setup_s needs fewer samples than wall_s: its spread is not bounded.
        return ["setup", "full"] if i % SETUP_EVERY == 0 else ["full"]

    samples = {"setup": [], "full": [], "traced": []}
    need = {"full": 1, "traced": 1} if args.trace else {"setup": 2, "full": workloads.MIN_REPS}
    tried = dict.fromkeys(commands, 0)
    last: dict[str, float] = {}  # duration of the latest invocation of each kind
    per_inv, failures = [], []
    reference: dict[str, dict] = {}  # first outputs of each config
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while any(tried[k] < n for k, n in need.items()) or \
            time.perf_counter() - start + sum(last[k] for k in round_kinds(i)) <= args.seconds:
        for kind in round_kinds(i):
            key = "cfg_setup" if kind == "setup" else "cfg"
            out_dir = inputs[key + "_out"]
            shutil.rmtree(out_dir, ignore_errors=True)
            child = run_child(commands[kind] + [str(inputs[key])], env, deadline, work)
            last[kind] = child.wall
            tried[kind] += 1
            attempted += 1
            errs = []
            if child.returncode != 0:
                errs.append(f"exit code {child.returncode}: {child.stderr[-500:]}")
            else:
                steps = 0 if kind == "setup" else wl.steps
                first = reference.setdefault(key, workloads.output_bytes(out_dir))
                errs += workloads.check_cli_run(wl, out_dir, steps, first)
            if errs:
                failed += 1
                failures += errs
            if child.returncode != 0:
                continue
            samples[kind].append({"wall_s": child.wall, "rss_mib": child.maxrss_mib})
            if kind == "traced":
                spans_of_run = load_spans(spans).get(0, [])
                metrics = rep_metrics(spans_of_run, wl.steps)
                metrics["cli.import_s"], metrics["cli.import_sympy_s"] = \
                    parse_importtime(child.stderr, IMPORT_BEGIN, IMPORT_END)
                per_inv.append((metrics, layer_self_times(spans_of_run)))
        i += 1
    e2e, layer, self_times = {}, {}, {}
    full, setup = samples["full"], samples["setup"]
    if full:
        e2e["wall_s"] = statistics.median(s["wall_s"] for s in full)
        e2e["peak_rss_mib"] = statistics.median(s["rss_mib"] for s in full)
        # Stepping time cannot be told apart from outside the process, and
        # the difference of two noisy medians is noisier than either; so
        # here the rate is over the whole invocation.
        e2e["steps_per_s"] = wl.steps / e2e["wall_s"]
    if setup:
        e2e["setup_s"] = statistics.median(s["wall_s"] for s in setup)
    if args.trace and per_inv and full:
        layer = {k: statistics.median(m[k] for m, _ in per_inv) for k in per_inv[0][0]}
        layer["trace.overhead_s"] = (
            statistics.median(s["wall_s"] for s in samples["traced"]) - e2e["wall_s"])
        self_times = per_inv[-1][1]
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "end_to_end": e2e, "per_layer": layer, "layer_self_s": self_times, "samples": samples}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
        "blas_threads": int(BLAS_THREADS),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grids and step counts (the benchmark's own test)")
    return parser.parse_args(argv)


def report(args, wl, env, result) -> dict:
    names = PER_LAYER if args.trace else END_TO_END
    source = result["per_layer"] if args.trace else result["end_to_end"]
    missing = [n for n in names if n not in source]
    if missing:
        raise BenchError(f"no successful repetition measured {', '.join(missing)}; "
                         f"failures: {result['failures'][:3]}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"grid={wl.nx}x{wl.ny} scheme={wl.scheme} steps={wl.steps}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name in names:
        value = source[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:32s} {shown} {names[name]}")
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} ({failed}/{attempted})")
    for msg in result["failures"][:5]:
        print(f"  failure: {msg}")
    if result["layer_self_s"]:
        print("  layer self time, one traced repetition: " + ", ".join(
            f"{layer}={result['layer_self_s'][layer]:.4f}s" for layer in LAYERS))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": source[n], "unit": names[n]} for n in names}}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"run-{args.workload}-{os.getpid()}"
    try:
        try:
            import bardina_strip.runio  # noqa: F401  (the package must be here)
        except ImportError as exc:
            raise BenchError(f"cannot import bardina_strip from {ROOT / 'src'}: {exc}")
        wl = workloads.get_workload(args.workload, tiny=args.tiny)
        try:
            inputs = workloads.generate(wl, args.seed, work, ROOT)
        except FileNotFoundError as exc:
            raise BenchError(f"missing input: {exc}")
        drive = run_cli if wl.cli else run_inprocess
        result = drive(wl, inputs, args, work, deadline)
        env = environment()
        line = report(args, wl, env, result)
        record = {"workload": asdict(wl), "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "environment": env, **result}
        (WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
