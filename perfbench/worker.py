"""One in-process workload: repeated ``solver.run`` calls in this process.

Usage: ``python worker.py <workload> <cfg> <seconds> <trace 0|1> <tiny 0|1>
<out.json> [spans.json]``

Each repetition loads the config, builds what the acceptance fixture builds
around ``solver.run``, runs it and checks the result.  Repetitions continue
while the next one should end within ``seconds`` (at least ``MIN_REPS``).
With tracing, a first untraced repetition warms up, then half the time runs
untraced and half traced, so the parent can report the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback

import numpy as np

import workloads


def one_rep(wl, cfg_path):
    from bardina_strip.diagnostics import StreamingTranslationModulus
    from bardina_strip.operators import OperatorSet
    from bardina_strip.runio import load_config
    from bardina_strip.solver import run
    from bardina_strip.weights import make_weight_field

    t0 = time.perf_counter()
    cfg = load_config(cfg_path).solver
    acc = None
    if wl.modulus:
        grid = cfg.grid()
        acc = StreamingTranslationModulus(
            grid, OperatorSet(grid, dealias=False), list(workloads.MODULUS_LAGS),
            dt_record=2 * cfg.dt, norm="h2h",
            weight=make_weight_field(grid, cfg.weight))
    first = []

    def observer(state, _rec):
        if not first:
            first.append(time.perf_counter())
        if acc is not None and state.step_index % 2 == 0:
            acc.add(state.t, state.v)

    state, series = run(cfg, on_record=observer)
    t1 = time.perf_counter()
    timing = {"wall_s": t1 - t0, "setup_s": first[0] - t0,
              "steps_per_s": cfg.n_steps / (t1 - first[0])}
    modulus = acc.result() if acc is not None else None
    return timing, state, series, modulus


def main(argv):
    name, cfg_path, seconds, trace, tiny, out_path = argv[:6]
    seconds, trace = float(seconds), trace == "1"
    wl = workloads.get_workload(name, tiny=tiny == "1")
    tracer = None
    reps = []
    reference = None
    start = time.perf_counter()
    # (phase, run until this many seconds, at least this many repetitions)
    if trace:
        phases = [("warmup", 0.0, 1), ("plain", seconds / 2, 1), ("traced", seconds, 1)]
    else:
        phases = [("plain", seconds, workloads.MIN_REPS)]
    for phase, until, need in phases:
        traced = phase == "traced"
        if traced:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        count, last = 0, 0.0
        # Stop before a repetition that would end past ``until``.
        while count < need or time.perf_counter() - start + last <= until:
            t_rep = time.perf_counter()
            if traced:
                tracer.rep_id = len(reps)
            try:
                timing, state, series, modulus = one_rep(wl, cfg_path)
                timing["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                failures = workloads.check_inprocess(wl, state, series, modulus)
                if reference is None:
                    reference = state.v.values.copy()
                elif not np.array_equal(state.v.values, reference):
                    failures.append("final state differs from the first repetition")
            except Exception:  # a failed repetition is counted, not fatal
                timing, failures = {}, [traceback.format_exc(limit=-3)]
            if traced:
                tracer.finish_rep()
            reps.append({"phase": phase, "timing": timing, "failures": failures})
            count += 1
            last = time.perf_counter() - t_rep
            # Free this repetition's fields before the next one starts, so
            # peak RSS and collection pauses do not depend on GC timing.
            state = series = modulus = None
            gc.collect()
    if tracer is not None:
        tracer.dump(argv[6])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"reps": reps}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
