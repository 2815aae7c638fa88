"""fpkit benchmark: closed-loop runs of the iterate, certify and cli workloads.

    python3 perfbench/run.py --workload iterate --seed 1 --seconds 20 --trace 0

Run from the repository root; fpkit is imported from ``src/``. One caller,
no threads: each op (one call into fpkit) starts after the previous one
returns. The op list of a workload is a pure function of ``--seed``; the
timed phase runs whole passes over it until ``--seconds`` of op time have
passed, judging every op with an independent numpy oracle (see
``workloads``). Op times are reported at a nominal machine speed, set by a
reference kernel measured between the ops (see ``reference``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` times one untraced
pass of the op list, then wraps fpkit's public functions (see ``tracing``),
traces one input build and the same pass again, and prints per-layer metrics
for that fixed amount of work, so counts repeat exactly for a seed.

Text lines come first (environment, failure accounting, every metric with its
unit); the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # setup_s counts imports from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import FAILED, Verdict, percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("iterate", "certify", "cli")
SETUP_PROBES = 4  # fresh processes that each time a full set-up, besides this one
PROBE_TIMEOUT_S = 120


def import_fpkit():
    """Import fpkit from this checkout's src/ only; raise ImportError otherwise."""
    sys.path.insert(0, str(SRC))
    import fpkit

    if Path(fpkit.__file__).resolve().parent != SRC / "fpkit":
        raise ImportError(f"fpkit imported from {fpkit.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
        "threads": "BLAS and thread settings left at their defaults",
        "isolation": "none: runs share the machine with other load",
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def set_up(workload: str, seed: int, workdir: Path):
    """Import, build the inputs and run one warm-up op; return (workload, seconds).

    Set-up is timed raw. It is short and starts cold, and a reference kernel
    run next to it tracks its speed poorly.
    """
    import_fpkit()
    from workloads import BUILDERS

    wl = BUILDERS[workload](seed, workdir)
    wl.warmup.call()
    return wl, time.perf_counter() - T_START


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process, as it reports them."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# Machine-speed reference. The shared host's speed swings by up to 2x within
# a minute, far beyond any useful regression bound, so op times are reported
# scaled to a machine on which this kernel takes REF_NOMINAL_S:
# t * REF_NOMINAL_S / (kernel time measured around t). The kernel never calls
# fpkit, so no change to fpkit can move it.
REF_ITERS = 1500
REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.1  # op time between two reference measurements
REF_WINDOW = 2  # measurements on each side of a stretch that set its scale


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed loop of small numpy calls."""
    import numpy as np

    A = np.linspace(-0.5, 0.5, 64).reshape(8, 8) / 4.0
    c = np.ones(8)
    x = np.zeros(8)
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(REF_ITERS):
        y = A @ x + c
        float(np.linalg.norm(y - x))
        x = y
    return time.perf_counter() - t0, time.process_time() - c0


class Record:
    """One op: raw wall and CPU seconds, and the factor that scales them to nominal speed."""

    __slots__ = ("kind", "wall", "cpu", "verdict", "wall_scale", "cpu_scale")

    def __init__(self, kind, wall, cpu, verdict):
        self.kind, self.wall, self.cpu, self.verdict = kind, wall, cpu, verdict
        self.wall_scale = self.cpu_scale = 1.0

    @property
    def t(self) -> float:
        """Wall seconds at nominal speed."""
        return self.wall * self.wall_scale

    @property
    def c(self) -> float:
        """CPU seconds at nominal speed."""
        return self.cpu * self.cpu_scale


def run_op(op, tracer=None) -> Record:
    if tracer is not None:
        tracer.active = True
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as e:  # an uncaught exception is a failed op, not a crash
        result, error = None, e
    t1 = time.perf_counter()
    c1 = time.process_time()
    if tracer is not None:
        tracer.active = False
    if error is not None:
        verdict = Verdict(FAILED, f"uncaught {type(error).__name__}: {error}")
    else:
        try:
            verdict = op.judge(result)
        except Exception as e:  # the result did not have the documented shape
            verdict = Verdict(FAILED, f"judge: {type(e).__name__}: {e}", wrong=True)
    if tracer is not None and op.kind.startswith("cli."):
        tracer.counters["cli.uncaught" if error is not None else f"cli.exit_{result}"] += 1
        if op.out is not None and op.out.is_dir():
            tracer.counters["harness.artifact_bytes"] += sum(
                p.stat().st_size for p in op.out.iterdir() if p.is_file())
    return Record(op.kind, t1 - t0, c1 - c0, verdict)


def run_passes(ops, seconds: float, tracer=None) -> tuple[list[Record], list[float]]:
    """Run whole passes over ops until `seconds` of raw op time (one pass at least).

    The reference kernel runs before the first op and again after every
    REF_EVERY_S of op time. Each stretch of ops between two measurements is
    scaled by the median of the measurements within REF_WINDOW of it, which
    follows the host's speed but not the jitter of single measurements.
    Returns the records and the kernel's wall times.
    """
    records: list[Record] = []
    refs = [reference()]
    stretches: list[list[Record]] = [[]]
    elapsed = stretch_s = 0.0
    while not records or elapsed < seconds:
        for op in ops:
            rec = run_op(op, tracer)
            records.append(rec)
            stretches[-1].append(rec)
            elapsed += rec.wall
            stretch_s += rec.wall
            if stretch_s >= REF_EVERY_S:
                refs.append(reference())
                stretches.append([])
                stretch_s = 0.0
    refs.append(reference())
    for j, stretch in enumerate(stretches):
        window = refs[max(0, j - REF_WINDOW):j + REF_WINDOW + 2]
        wall_scale = REF_NOMINAL_S / statistics.median(w for w, _ in window)
        cpu_scale = REF_NOMINAL_S / statistics.median(c for _, c in window)
        for r in stretch:
            r.wall_scale, r.cpu_scale = wall_scale, cpu_scale
    return records, [w for w, _ in refs]


def failure_lines(records: list[Record]) -> tuple[list[str], int, bool]:
    outcomes = Counter(r.verdict.outcome for r in records)
    failed = outcomes[FAILED]
    wrong = sum(r.verdict.wrong for r in records)
    reasons = Counter(f"{r.kind}: {r.verdict.reason}" for r in records if r.verdict.outcome == FAILED)
    lines = [
        f"ops attempted={len(records)} ok={outcomes['ok']} scheme={outcomes['scheme']} "
        f"failed={failed} wrong_answers={wrong} failed_ops_ratio={failed / len(records):.6f} ratio"
    ]
    lines += [f"  failed x{n}: {reason}" for reason, n in sorted(reasons.items())]
    return lines, failed, wrong == 0


def kind_lines(records: list[Record]) -> list[str]:
    """Count, median time and share of op time of each op kind."""
    busy = sum(r.t for r in records)
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.t)
    return [
        f"  kind {kind}: n={len(w)} p50_ms={1e3 * percentile(w, 50):.3f} time_share={sum(w) / busy:.3f}"
        for kind, w in sorted(by_kind.items())
    ]


def end_to_end(workload: str, records: list[Record], n_ops: int,
               setup: list[float]) -> tuple[dict, dict]:
    """(metrics in BENCHMARK.json, text-only metrics), times at nominal speed."""
    times = [r.t for r in records]
    busy = sum(times)
    pass_cpu = [sum(r.c for r in records[i:i + n_ops]) for i in range(0, len(records), n_ops)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(records) / busy, "1/s"),
        "cpu_s": (statistics.median(pass_cpu), "s"),
        "op_p50_ms": (1e3 * percentile(times, 50), "ms"),
        "op_p90_ms": (1e3 * percentile(times, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = [r.wall for r in records]
    extra = {
        "raw_ops_per_s": (len(records) / sum(raw), "1/s"),
        "raw_cpu_s": (statistics.median(
            sum(r.cpu for r in records[i:i + n_ops]) for i in range(0, len(records), n_ops)), "s"),
        "raw_op_p50_ms": (1e3 * percentile(raw, 50), "ms"),
        "raw_op_p90_ms": (1e3 * percentile(raw, 90), "ms"),
    }

    def p50_ms(kind):
        return (1e3 * percentile([r.t for r in records if r.kind == kind], 50), "ms")

    if workload == "iterate":
        extra["steps_per_s"] = (sum(r.verdict.steps for r in records) / busy, "1/s")
        extra["solve_p50_ms"] = p50_ms("solve_modified")
    elif workload == "certify":
        verify_s = sum(r.t for r in records if r.kind == "verify")
        extra["pairs_per_s"] = (sum(r.verdict.pairs for r in records) / verify_s, "1/s")
        extra["verify_p50_ms"] = p50_ms("verify")
        extra["min_b_p50_ms"] = p50_ms("min_b")
    return metrics, extra


def per_layer(tracer, untraced_s: float, traced_s: float) -> dict:
    t = tracer.layer_totals()
    c = tracer.counters
    m: dict[str, tuple[float, str]] = {}

    def calls_self(name, *, calls=True):
        if calls:
            m[f"{name}.calls"] = (t[name]["calls"], "count")
        m[f"{name}.self_s"] = (t[name]["self_s"], "s")

    calls_self("spaces.norm")
    calls_self("spaces.operator_norm")
    m["spaces.operator_norm.failed"] = (t["spaces.operator_norm"]["failed"], "count")
    calls_self("mappings.evaluate")
    calls_self("mappings.evaluate_many")
    m["mappings.evaluate_many.rows"] = (c["mappings.evaluate_many.rows"], "count")
    calls_self("mappings.as_affine")
    calls_self("enrichment.PairSampler.draw")
    m["enrichment.PairSampler.draw.pairs"] = (c["enrichment.PairSampler.draw.pairs"], "count")
    calls_self("enrichment.verify_condition")
    calls_self("enrichment.min_b_affine")
    mb = t["enrichment.min_b_affine"]
    m["enrichment.min_b_affine.failed"] = (mb["failed"], "count")
    m["enrichment.min_b_affine.found_ratio"] = (
        c["enrichment.min_b_affine.found"] / mb["calls"] if mb["calls"] else 0.0, "ratio")
    m["enrichment.min_b_affine.norm_evals_per_call"] = (
        tracer.child_calls("enrichment.min_b_affine", "spaces.operator_norm") / mb["calls"]
        if mb["calls"] else 0.0, "count")
    calls_self("iteration.picard")
    pc = t["iteration.picard"]
    steps = c["iteration.picard.steps"]
    m["iteration.picard.steps"] = (steps, "count")
    m["iteration.picard.us_per_step"] = (1e6 * pc["total_s"] / steps if steps else 0.0, "us")
    m["iteration.picard.converged_ratio"] = (
        c["iteration.picard.converged"] / c["iteration.picard.returned"]
        if c["iteration.picard.returned"] else 0.0, "ratio")
    calls_self("iteration.solve_modified")
    for name in ("parse_config", "config_digest", "run_experiment", "write_trace_csv"):
        calls_self(f"harness.{name}")
    m["harness.artifact_bytes"] = (c["harness.artifact_bytes"], "bytes")
    calls_self("harness.bench_compare", calls=False)
    calls_self("harness.generate_affine_family", calls=False)
    calls_self("cli.main")
    for code in range(4):
        m[f"cli.exit_{code}"] = (c[f"cli.exit_{code}"], "count")
    m["cli.uncaught"] = (c["cli.uncaught"], "count")
    m["trace.overhead_ratio"] = (untraced_s / traced_s, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl, setup = set_up(args.workload, args.seed, workdir)
    except ImportError as e:
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"perfbench: cannot import fpkit from {SRC}: {e}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        return report(args, wl, setup)
    finally:
        wl.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, wl, own_setup: float) -> int:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops_per_pass={len(wl.ops)} mode=closed-loop clients=1")
    print("env " + json.dumps(environment(args.seed)))

    if args.trace:
        from tracing import Tracer, install, uninstall
        from workloads import BUILDERS

        untraced, _ = run_passes(wl.ops, 0.0)
        tracer = Tracer()
        undo = install(tracer)
        try:
            tracer.active = True  # the input build: generate_affine_family and friends
            rebuild_dir = WORK / f"trace-{os.getpid()}"
            BUILDERS[args.workload](args.seed, rebuild_dir)
            tracer.active = False
            shutil.rmtree(rebuild_dir, ignore_errors=True)
            traced, _ = run_passes(wl.ops, 0.0, tracer)
        finally:
            uninstall(undo)
        tracer.dump(WORK / f"spans-{args.workload}.npz")
        records = untraced + traced
        metrics = per_layer(tracer, sum(r.t for r in untraced), sum(r.t for r in traced))
        extra = {}
    else:
        records, refs = run_passes(wl.ops, args.seconds)
        n = len(wl.ops)
        print("pass s (nominal/raw): " + " ".join(
            f"{sum(r.t for r in records[i:i + n]):.3f}/{sum(r.wall for r in records[i:i + n]):.3f}"
            for i in range(0, len(records), n)))
        ref_ms = sorted(1e3 * w for w in refs)
        print(f"reference kernel ms: median={statistics.median(ref_ms):.3f} "
              f"min={ref_ms[0]:.3f} max={ref_ms[-1]:.3f} n={len(ref_ms)}")
        setup = [own_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics, extra = end_to_end(args.workload, records, len(wl.ops), setup)
        print(f"passes={len(records) // len(wl.ops)} setup samples (s): "
              + ", ".join(f"{s:.4f}" for s in setup))

    lines, failed, correct = failure_lines(records)
    print("\n".join(lines + kind_lines(records)))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
