"""Benchmark entry point: runs one workload in this process.

    python3 perfbench/run.py --workload {score,incremental,train} --seed N
                             --seconds S --trace {0,1} [--smoke]

Run from the repository root; nlmkit is imported from ``src/`` and the
oracles from ``tests/oracles.py``.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it alternates
untraced and traced passes over one fixed cycle of requests and reports
per-layer self times and counts.  Outputs are checked against the oracles
after the timed region.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with the environment, goes to
``perfbench/out/``.  ``--smoke`` runs the same cycles at tiny sizes.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

# Pin BLAS to one thread before numpy loads it (numpy is first imported
# inside main): matmuls are a small share of the time and a second BLAS
# thread would compete with the caller for the machine's two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(ROOT, "perfbench", "out")

MIN_TAIL_SAMPLES = 10
MIN_ROUNDS = 3
MAX_MEASURE_S = 75.0
# set-ups before the first round; after every round, one more for every
# SETUP_EVERY_S the round took
SETUP_REPS = 5
SETUP_EVERY_S = 0.25
# The self times of the reported layers must sum to the traced rounds' wall
# time within this share.
SELF_TIME_TOLERANCE = 0.1
# the benchmark's own span around each request; its self time is time no
# reported layer covers
REQUEST_SPAN = "bench.request"

SETUP_LAYERS = ("config.load_config", "vocab.load_vocab", "archive.load_weights",
                "weights.assemble_weights", "weights.init_weights")


@dataclass
class Sample:
    req: object
    latency: float
    output: object
    error: str | None
    slowdown: float = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one nlmkit benchmark workload.")
    p.add_argument("--workload", required=True, choices=("score", "incremental", "train"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="tiny model sizes, for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def execute_one(req, models, tracer):
    """One request: (output, None), or (None, traceback) when it raised."""
    from workloads import execute
    try:
        if tracer is None:
            return execute(req, models), None
        with tracer.span(REQUEST_SPAN):
            return execute(req, models), None
    except Exception:  # one failed request must not end the run
        return None, traceback.format_exc(limit=-3)


def execute_all(requests, models, tracer=None, gauge=None) -> list:
    """Run requests in order; a request that raises is recorded, not fatal.

    With a ``reference.Gauge``, the host's slowdown is read before the first
    request, after every request and periodically during each.  A sample's
    latency leaves out the readings inside it, and its slowdown is the mean
    of the readings from just before it to just after it.
    """
    from reference import reading
    clock = time.perf_counter
    samples = []
    if gauge is None:
        for req in requests:
            t0 = clock()
            out, err = execute_one(req, models, tracer)
            samples.append(Sample(req, clock() - t0, out, err))
        return samples
    before = reading()
    for req in requests:
        with gauge.sampling() as inside:
            t0 = clock()
            out, err = execute_one(req, models, tracer)
            latency = clock() - t0
        after = reading()
        readings = [before, *inside, after]
        latency -= sum(seconds for _, seconds in inside)
        samples.append(Sample(req, latency, out, err,
                              statistics.fmean(slowdown for slowdown, _ in readings)))
        before = after
    return samples


def run_round(requests, base_models, tracer=None, gauge=None):
    """One round on fresh copies of the models; returns (samples, seconds)."""
    from workloads import Model
    models = {k: Model(m.cfg, copy.deepcopy(m.weights), m.vocab) for k, m in base_models.items()}
    t0 = time.perf_counter()
    samples = execute_all(requests, models, tracer, gauge)
    return samples, time.perf_counter() - t0


def setup_once(wl, directory, seed):
    """One set-up: (seconds, the host's slowdown around it, models)."""
    import workloads
    from reference import reading
    before = reading()[0]
    t0 = time.perf_counter()
    models = workloads.setup(wl, directory, seed)
    seconds = time.perf_counter() - t0
    return seconds, (before + reading()[0]) / 2, models


def round_failures(rounds) -> list:
    """Requests that raised, and outputs that differ from the first round's."""
    failures = []
    first = rounds[0]
    for samples in rounds:
        for s, ref in zip(samples, first):
            name = f"{s.req.kind}:{s.req.model}"
            if s.error is not None:
                failures.append(f"{name}: raised\n{s.error}")
            elif ref.error is None and not same_output(s.output, ref.output):
                failures.append(f"{name}: output differs between rounds")
    return failures


def select_checks(wl, samples, rng):
    """Seeded subset: every training step, one request of every other kind."""
    groups = {}
    for s in samples:
        if s.error is None:
            groups.setdefault(f"{s.req.kind}:{s.req.model}", []).append(s)
    chosen = []
    for slot, group in groups.items():
        if slot.startswith("train:"):
            chosen += group
            continue
        if slot in wl.check_shortest:
            group = [min(group, key=lambda s: len(s.req.ids))]
        chosen.append(group[int(rng.integers(len(group)))])
    return chosen


def oracle_failures(wl, samples, models, seed) -> list:
    import numpy as np
    import checks
    rng = np.random.default_rng([seed, 1])
    oracles = {}
    failures = []
    for s in select_checks(wl, samples, rng):
        msg = checks.check(s.req, s.output, models, rng, oracles)
        if msg is not None:
            failures.append(f"{s.req.kind}:{s.req.model}: {msg}")
    return failures


def same_output(a, b) -> bool:
    """Bitwise equality of two outputs of the same request."""
    import numpy as np
    from nlmkit.training import named_tensor_view
    if isinstance(a, tuple):
        if isinstance(a[1], float):  # training step: (weights, loss)
            ta, tb = named_tensor_view(a[0]), named_tensor_view(b[0])
            return a[1] == b[1] and ta.keys() == tb.keys() and all(
                np.array_equal(ta[k], tb[k]) for k in ta)
        return a[0] == b[0] and a[1].corrupted.ids == b[1].corrupted.ids  # mlm
    return a == b


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_request(rounds, value) -> list:
    """Per request of the round: the median of ``value`` over its successful
    executions, or None when every execution failed."""
    times = []
    for i in range(len(rounds[0])):
        ok = [value(r[i]) for r in rounds if r[i].error is None]
        times.append(statistics.median(ok) if ok else None)
    return times


def rate(requests, times, kinds, per="tokens"):
    picked = [(r, t) for r, t in zip(requests, times) if t is not None and r.kind in kinds]
    if not picked:
        return None
    return sum(r.tokens if per == "tokens" else r.steps for r, _ in picked) / sum(t for _, t in picked)


def end_to_end(args, wl, requests, base_models, directory, setup_times):
    import numpy as np
    import reference
    rounds = []
    begin = time.perf_counter()
    while True:
        samples, seconds = run_round(requests, base_models, gauge=reference.Gauge())
        rounds.append(samples)
        # Set-ups spread over the run, like the requests' executions.
        # They run after the round's models are freed, so that their own
        # models do not raise the peak memory.
        for _ in range(max(1, round(seconds / SETUP_EVERY_S))):
            setup_times.append(setup_once(wl, directory, args.seed)[:2])
        elapsed = time.perf_counter() - begin
        executions = len(rounds) * len(requests)
        enough_tail = executions * (100.0 - wl.tail_pct) / 100.0 >= MIN_TAIL_SAMPLES
        if elapsed >= MAX_MEASURE_S or (len(rounds) >= MIN_ROUNDS and elapsed >= args.seconds
                                        and enough_tail):
            break
    rss = peak_rss_mb()
    failures = round_failures(rounds) + oracle_failures(wl, rounds[0], base_models, args.seed)

    # Other tenants of the machine slow it down by up to two times, in
    # phases of a second to minutes that can cover a whole run.  A request's
    # **service time** is the median over its executions of the latency
    # divided by the host's slowdown during it (reference.py): its latency
    # at reference speed.  Every execution counts as one latency sample
    # valued at its request's service time.  The same figures over every
    # execution at its own latency are recorded beside them, without a bound.
    service = per_request(rounds, lambda s: s.latency / s.slowdown)
    typical = per_request(rounds, lambda s: s.latency)
    latency = np.array([service[i] for r in rounds for i, s in enumerate(r) if s.error is None])
    tail = float(np.percentile(latency, wl.tail_pct))
    observed = np.array([s.latency for r in rounds for s in r if s.error is None])
    every_kind = ("ar", "mlm", "decode", "nll", "train")
    metrics = {
        "tok_per_s": (rate(requests, service, every_kind), "tok/s"),
        "request_p50_ms": (float(np.median(latency)) * 1e3, "ms"),
        "request_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(t / slowdown for t, slowdown in setup_times), "s"),
    }
    extra = {
        "score_tok_per_s": (rate(requests, service, ("ar", "mlm")), "tok/s"),
        "decode_tok_per_s": (rate(requests, service, ("decode",)), "tok/s"),
        "nll_tok_per_s": (rate(requests, service, ("nll",)), "tok/s"),
        "train_steps_per_s": (rate(requests, service, ("train",), per="steps"), "1/s"),
        "failed_ratio": (len(failures) / executions, "ratio"),
        "request_tail_pct": (wl.tail_pct, "percentile"),
        # ties at the tail are one request repeated over rounds, so count them in
        "request_tail_samples": (int((latency >= tail).sum()), "count"),
        "request_tail_requests": (sum(1 for t in service if t is not None and t >= tail), "count"),
        "tok_per_s_observed": (rate(requests, typical, every_kind), "tok/s"),
        "request_p50_observed_ms": (float(np.median(observed)) * 1e3, "ms"),
        "request_tail_observed_ms": (float(np.percentile(observed, wl.tail_pct)) * 1e3, "ms"),
        "host_slowdown": (statistics.median(s.slowdown for r in rounds for s in r), "ratio"),
        "setup_observed_s": (statistics.median(t for t, _ in setup_times), "s"),
        "setup_reps": (len(setup_times), "count"),
        "round_requests": (len(requests), "count"),
        "rounds": (len(rounds), "count"),
    }
    extra = {k: v for k, v in extra.items() if v[0] is not None}
    notes = {"requests": [{"request": f"{r.kind}:{r.model}", "ids": len(r.ids), "steps": r.steps,
                           "tokens": r.tokens, "service_s": t, "median_s": m}
                          for r, t, m in zip(requests, service, typical)]}
    return metrics, extra, executions, failures, notes


def per_layer(args, wl, requests, base_models, directory, layer_metrics):
    import workloads
    from tracer import FORWARD_FUNCTIONS, LOSS_LAYER, Tracer

    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.setup"):
        workloads.setup(wl, directory, args.seed)
    setup_end = tracer.mark()
    tracer.reset_counts()
    pass_begin = tracer.mark()
    untraced, traced, times_u, times_t = [], [], [], []
    begin = time.perf_counter()
    while True:
        samples, seconds = run_round(requests, base_models)
        untraced.append(samples)
        times_u.append(seconds)
        with tracer.installed():
            samples, seconds = run_round(requests, base_models, tracer)
        traced.append(samples)
        times_t.append(seconds)
        if time.perf_counter() - begin + times_u[-1] + times_t[-1] > args.seconds:
            break
    pass_end = tracer.mark()
    passes = len(traced)

    failures = round_failures(untraced + traced)
    failures += oracle_failures(wl, traced[0], base_models, args.seed)
    setup_totals = tracer.layer_totals(0, setup_end)
    totals = tracer.layer_totals(pass_begin, pass_end)
    # Time that no reported layer covers is the request span's self time:
    # the benchmark's own code and package code outside every wrapped function.
    reported = {name[:-2] for name, _ in layer_metrics if name.endswith(".s")} - {REQUEST_SPAN}
    covered = sum(totals[layer][0] for layer in reported if layer in totals)
    if abs(covered / sum(times_t) - 1.0) > SELF_TIME_TOLERANCE:
        failures.append(f"self times of the reported layers sum to {covered:.6f} s; "
                        f"traced rounds took {sum(times_t):.6f} s")

    forwards = tracer.calls_of(pass_begin, pass_end, FORWARD_FUNCTIONS)
    positions = sum(r.positions for r in requests) * passes
    steps = sum(r.steps for r in requests if r.kind == "train") * passes
    metrics = {}
    for name, unit in layer_metrics:
        layer, _, what = name.rpartition(".")
        if what == "s" and layer in SETUP_LAYERS:
            value = setup_totals.get(layer, (0.0, 0))[0]
        elif what == "s":
            value = totals.get(layer, (0.0, 0))[0] / passes
        elif what == "calls":
            value = totals.get(layer, (0.0, 0))[1] / passes
        elif what == "mflop_per_forward":
            value = tracer.flops.get(layer, 0.0) / 1e6 / forwards if forwards else 0.0
        elif name == "inference.forward_passes":
            value = forwards / passes
        elif name == "inference.positions_per_token":
            value = tracer.positions / positions
        elif name == "training.loss_evals_per_step":
            value = totals.get(LOSS_LAYER, (0.0, 0))[1] / steps if steps else 0.0
        elif name == "trace.overhead_pct":
            value = (min(times_t) / min(times_u) - 1.0) * 100.0
        else:
            raise KeyError(name)
        metrics[name] = (value, unit)
    extra = {
        "rounds": (passes, "count"),
        "untraced_round_s": (min(times_u), "s"),
        "traced_round_s": (min(times_t), "s"),
        "reported_self_s": (covered / passes, "s"),
        "spans": (pass_end - pass_begin, "count"),
    }
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"{args.workload}-spans.npz"))
    notes = {"missing_functions": tracer.missing, "count_hook_errors": sorted(tracer.hook_errors)}
    return metrics, extra, 2 * passes * len(requests), failures, notes


def blas_record() -> dict:
    """BLAS library from numpy's build info and its live thread count."""
    import ctypes
    import numpy as np
    record = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record.update(library=os.path.basename(path), threads=fn())
                return record
    return record


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "seed": args.seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "nlmkit", "__init__.py"))
            and os.path.isfile(os.path.join(TESTS, "oracles.py"))):
        print(f"perfbench: {ROOT} holds no src/nlmkit package or tests/oracles.py", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, TESTS]
    import workloads

    wl = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    directory = os.path.join(OUT, "models", args.workload)
    if wl.from_archive:
        workloads.write_models(wl, directory, args.seed)
    setup_times = []
    for _ in range(SETUP_REPS):
        seconds, slowdown, models = setup_once(wl, directory, args.seed)
        setup_times.append((seconds, slowdown))
    requests = workloads.make_round(wl, args.seed)

    if args.trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            layer_metrics = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
        metrics, extra, attempted, failures, notes = per_layer(args, wl, requests, models,
                                                               directory, layer_metrics)
    else:
        metrics, extra, attempted, failures, notes = end_to_end(args, wl, requests, models,
                                                                directory, setup_times)

    env = environment(args)
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{args.workload:<12} {name:<40} {value:>16.6g} {unit}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name in notes.get("missing_functions", []):
        print(f"note: nlmkit.{name} does not exist; its span is missing", file=sys.stderr)
    record = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "failures": failures, **notes,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": not failures and finite,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
