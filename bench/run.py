"""lipctx benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload certify_sweep --seed 0 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` at the
repository root lists them with the metrics and their bounds. The run
imports lipctx from ``src/`` next to this directory and fails (exit 1,
no result) when it is not there.

With ``--trace 0`` the run reports the end-to-end metrics:

1. ``setup_s``: the median over several fresh processes of process start
   through ``import lipctx`` and building the workload's inputs.
2. An untimed pass: the largest input once under ``tracemalloc``
   (``peak_mb``), the output checks that need a reference, and the
   output digest.
3. The timed loop: a closed loop of unit ops for ``--seconds`` seconds
   and at least one whole cycle of the workload's inputs. ``ops_per_s``
   comes from each cycle position's median latency, ``op_p50_ms`` is the
   median with every position weighted equally. Every op's output is
   checked after the loop.

With ``--trace 1`` the run reports the per-layer metrics instead: each
op of the workload's fixed traced op list runs once untraced and once
with span wrappers on lipctx's public functions (``tracer.py``), then the
largest input runs once with per-span ``tracemalloc`` peaks. Spans are
written to ``bench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it print every metric by name and unit, the output digest and the
environment block.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

# One thread everywhere, fixed before numpy loads: the load generator is a
# single closed-loop caller, and on a shared 2-CPU box BLAS threads only
# add noise. The inherited values are recorded in the environment block.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LIPCTX_THREADS")
INHERITED = {k: os.environ.get(k) for k in THREAD_VARS}
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("LIPCTX_THREADS", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
MB = 1e6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workload(name: str):
    """Import lipctx from this checkout's ``src/`` and return the workload class."""
    src = ROOT / "src"
    if not (src / "lipctx" / "__init__.py").is_file():
        sys.exit(f"bench: no lipctx package under {src}")
    sys.path.insert(0, str(src))
    import lipctx

    if Path(lipctx.__file__).resolve().parent != (src / "lipctx").resolve():
        sys.exit(f"bench: imported lipctx from {lipctx.__file__}, not from {src}")
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; have {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name]


# ---------------------------------------------------------------------------
# Running ops and counting failures
# ---------------------------------------------------------------------------
def attempt(fn, i):
    """``(fn(i), [])``, or ``(None, [problem])`` when it raises."""
    try:
        return fn(i), []
    except Exception as exc:  # a failing op is counted, and the run goes on
        return None, [f"op {i}: {type(exc).__name__}: {exc}"]


class Tally:
    """Operations attempted and failed, with the problems found.

    Besides the workload's own checks, every op whose inputs repeat an
    earlier op's (same index modulo the workload's pool) must give the
    same output bytes.
    """

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outputs = {}

    def record(self, i, out, problems, extra=None) -> list:
        if not problems:
            found, problems = attempt(
                lambda _: (extra(i, out) if extra else []) + self.wl.check(i, out), i
            )
            problems = problems or found
        if not problems:
            key = i if i < 0 else i % self.wl.POOL
            digest = self.wl.digest(out)
            if self.outputs.setdefault(key, digest) != digest:
                problems = [f"op {i}: output differs bit for bit from an op on the same inputs"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return problems


def untimed_pass(wl, tally, peak=True):
    """Reference checks and output digest; with ``peak``, the largest
    input's op runs under tracemalloc and its peak is returned."""
    digest = hashlib.sha256()
    peak_mb = None
    times_ms = []
    for n, (i, extra) in enumerate(wl.untimed()):
        gc.collect()
        traced = peak and n == 0
        if traced:
            tracemalloc.start()
        t = time.perf_counter()
        out, problems = attempt(wl.op, i)
        times_ms.append((time.perf_counter() - t) * 1e3)
        if traced:
            peak_mb = tracemalloc.get_traced_memory()[1] / MB
            tracemalloc.stop()
        if not tally.record(i, out, problems, extra):
            digest.update(wl.digest(out))
    return peak_mb, digest.hexdigest(), times_ms


def timed_loop(wl, seconds, tally):
    """Closed loop of ops until ``seconds`` have passed and one cycle is done.

    Returns ``(cycle position, latency)`` of every op, failed ones too,
    the number of ops that passed their checks, the busy time (the sum of
    the latencies) and the loop's wall time.
    """
    runs = []
    gc.collect()
    t0 = time.perf_counter()
    i = 0
    while True:
        a = time.perf_counter()
        out, problems = attempt(wl.op, i)
        b = time.perf_counter()
        runs.append((i, out, problems, b - a))
        i += 1
        if b - t0 >= seconds and i >= wl.CYCLE:
            break
    latencies = [(i % wl.CYCLE, dt) for i, _, _, dt in runs]
    passed = sum(not tally.record(i, out, problems) for i, out, problems, _ in runs)
    return latencies, passed, sum(dt for _, dt in latencies), b - t0


def by_position(latencies, cycle):
    """The latencies of each position of the cycle that has any."""
    groups = [[] for _ in range(cycle)]
    for k, dt in latencies:
        groups[k].append(dt)
    return [g for g in groups if g]


def mix_rate(latencies, cycle):
    """Ops per second of one caller running every position of the cycle
    once, each at its median latency over the run.

    Ops differ in cost by their position in the cycle, and a run that
    ends mid-cycle holds some positions once more than others; taking
    each position once gives every run the same mix. Medians keep a
    burst of slowness on a shared machine from moving the figure.
    """
    groups = by_position(latencies, cycle)
    return len(groups) / sum(statistics.median(g) for g in groups)


def completed_rate(latencies, passed, cycle):
    """``mix_rate`` counting only the ops that passed their checks."""
    return mix_rate(latencies, cycle) * passed / len(latencies)


def mix_median(latencies, cycle):
    """Median latency with every position of the cycle weighted equally:
    each op weighs one over the number of ops at its position."""
    groups = by_position(latencies, cycle)
    pairs = sorted((dt, Fraction(1, len(g))) for g in groups for dt in g)
    half = Fraction(len(groups), 2)
    acc = 0
    for n, (dt, w) in enumerate(pairs):
        acc += w
        if acc > half:
            return dt
        if acc == half:
            return (dt + pairs[n + 1][0]) / 2.0
    raise AssertionError("weights sum to the number of positions")


def tail(latencies):
    """Latency at the highest percentile with ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def setup_seconds(args):
    """Median wall time of fresh processes that import lipctx and build inputs."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # round every set-up time; a timer kills a hung child instead.
        guard = threading.Timer(120.0, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        times.append(time.perf_counter() - t)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------
def run_end_to_end(wl, args, tally):
    setup_s, setups = setup_seconds(args)
    peak_mb, digest, untimed_ms = untimed_pass(wl, tally)
    latencies, passed, busy, wall = timed_loop(wl, args.seconds, tally)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed_rate(latencies, passed, wl.CYCLE), "ops/s"),
        "op_p50_ms": (mix_median(latencies, wl.CYCLE) * 1e3, "ms"),
        "peak_mb": (peak_mb, "MB"),
    }
    detail = {
        "setup_runs_s": setups,
        "ops_timed": len(latencies),
        "ops_completed": passed,
        "ops_per_s_plain": passed / busy,
        "loop_busy_s": busy,
        "loop_wall_s": wall,
        "untimed_op_ms": untimed_ms,
    }
    t = tail([dt for _, dt in latencies])
    if t is not None:
        detail["op_tail_ms"] = {
            "value": t[0] * 1e3, "percentile": t[1], "beyond": 10, "ops": len(latencies),
        }
    return metrics, digest, detail


def run_traced(wl, args, tally):
    from tracer import OP, Tracer

    _, digest, _ = untimed_pass(wl, tally, peak=False)
    ops = wl.TRACED_OPS
    tracer = Tracer()
    untraced = 0.0
    for n, i in enumerate(ops):
        # Each op runs untraced and traced back to back, in alternating
        # order, so warm-up and the machine's drift fall on both sides.
        for traced in (n % 2 == 1, n % 2 == 0):
            if traced:
                tracer.install()
                out, problems = attempt(lambda i: tracer.run_op(i, lambda: wl.op(i)), i)
                tracer.uninstall()
            else:
                t = time.perf_counter()
                out, problems = attempt(wl.op, i)
                untraced += time.perf_counter() - t
            tally.record(i, out, problems)
    tracer.install()
    largest = wl.untimed()[0][0]
    gc.collect()
    tracemalloc.start()
    out, problems = attempt(lambda i: tracer.run_op(i, lambda: wl.op(i), memory=True), largest)
    tracemalloc.stop()
    tally.record(largest, out, problems)

    s = tracer.summary()
    traced = s[OP]["incl_s"]
    named = sum(v["self_s"] for k, v in s.items() if k != OP)
    metrics = layer_metrics(s, len(ops), untraced, traced)
    out_dir = BENCH / "traces"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"{args.workload}-seed{args.seed}.json"
    tracer.write(spans_file)
    detail = {
        "traced_ops": list(ops),
        "spans": len(tracer.key),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "named_self_s_plus_unattributed_minus_op_s": named + s[OP]["self_s"] - traced,
        "attn_apply_batch_computed_bytes": 8 * s["layers.attn_apply_batch"]["work"],
        "stage_peak_mb": {k: v["peak_bytes"] / MB for k, v in s.items() if v["peak_bytes"]},
    }
    return metrics, digest, detail


def layer_metrics(s, n_ops, untraced_s, traced_s):
    """The per-layer metrics, named ``<module>.<public function>.<quantity>``."""
    m = {}

    def calls(name):
        m[name + ".calls"] = (s[name]["calls"], "count")

    def self_s(name):
        m[name + ".self_s"] = (s[name]["self_s"], "s")

    m["measure.EmpiricalMeasure.builds"] = (s["measure.EmpiricalMeasure"]["calls"], "count")
    self_s("measure.EmpiricalMeasure")
    w1 = s["measure.w1_exact"]
    calls("measure.w1_exact")
    self_s("measure.w1_exact")
    m["measure.w1_exact.cells"] = (w1["work"], "count")
    m["measure.w1_exact.us_per_call"] = (
        w1["incl_s"] / w1["calls"] * 1e6 if w1["calls"] else 0.0, "us"
    )
    for name in ("layers.spectral_norm", "layers.attn_apply_batch", "layers.mlp_forward_batch"):
        calls(name)
        self_s(name)
    attn = s["layers.attn_apply_batch"]
    m["layers.attn_apply_batch.terms"] = (attn["work"], "count")
    m["layers.attn_apply_batch.peak_mb"] = (attn["peak_bytes"] / MB, "MB")
    for name in ("transformer.forward", "transformer.is_clamped"):
        calls(name)
        self_s(name)
    self_s("transformer.Lifting.apply_batch")
    train = s["critic.train_critic"]
    calls("critic.train_critic")
    self_s("critic.train_critic")
    iters = s["critic.critic_grads"]["calls"]
    m["critic.train_critic.iters"] = (iters, "count")
    m["critic.train_critic.iters_per_s"] = (
        iters / train["incl_s"] if train["incl_s"] else 0.0, "1/s"
    )
    for name in ("critic.critic_grads", "critic.project_params", "critic.kr_objective"):
        self_s(name)
    for name in ("constructions.separator", "constructions.lattice_combine"):
        calls(name)
        self_s(name)
    for name in (
        "constructions.rsw_interpolate",
        "certify.certify_model",
        "certify.empirical_query_lipschitz",
        "certify.empirical_context_lipschitz",
        "certify.fd_checks",
        "serialize.model_hash",
    ):
        self_s(name)
    m["bench.unattributed.self_s"] = (s["bench.op"]["self_s"], "s")
    m["bench.op.traced_s"] = (traced_s, "s")
    m["bench.op.untraced_s"] = (untraced_s, "s")
    m["bench.ops_per_s.untraced"] = (n_ops / untraced_s, "ops/s")
    m["bench.ops_per_s.traced"] = (n_ops / traced_s, "ops/s")
    m["bench.trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    return m


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------
def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def loadavg():
    return _read("/proc/loadavg").strip()


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    l3 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level").strip() == "3":
            l3 = _read(index / "size").strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "threads_inherited": INHERITED,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3": l3,
        "loadavg_start": loadavg(),
    }


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    workload = load_workload(args.workload)
    wl = workload(args.seed)
    if args.setup_only:
        sys.stdout.flush()
        os._exit(0)
    env = environment()
    tally = Tally(wl)
    if args.trace:
        metrics, digest, detail = run_traced(wl, args, tally)
    else:
        metrics, digest, detail = run_end_to_end(wl, args, tally)
    env["loadavg_end"] = loadavg()

    print(f"lipctx benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; closed loop, one caller, one thread")
    print(f"  why: {workload.WHY}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if not args.trace:
        t = detail.get("op_tail_ms")
        print(f"  {'op_tail_ms':40s} " + (
            f"{t['value']:.6g} ms (p{t['percentile']:.1f}, {t['beyond']} of {t['ops']} ops beyond)"
            if t else f"not reported: {detail['ops_timed']} ops, fewer than 11"))
    print(f"  {'fail_frac':40s} {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems[:20]:
        print(f"  FAIL {problem}")
    print(f"  digest sha256:{digest}")
    print("detail " + json.dumps(detail))
    print("env " + json.dumps(env))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
