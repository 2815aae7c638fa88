"""The three workloads: seeded op lists, each op with an independent oracle.

An op is one call into fpkit's public API (or ``fpkit.cli.main``). Every op
carries a judge that classifies what came back (see ``stats``) with numpy
oracles that share no code with fpkit:

- converged affine solves agree with ``np.linalg.solve(I - A, c)``;
- a ``min_b`` result is checked with numpy matrix norms (the SVD for l2)
  just above and just below the returned b;
- for affine maps in l2, a sampled ``max_ratio`` never exceeds the exact
  ``||bI + A||_2 / rhs`` by more than the slack;
- CLI reruns into a fresh directory give byte-identical artifacts.

Inputs are a pure function of the workload seed, except for named fixed
inputs: those of ``scripts/`` at their default seeds, and ROADMAP's ``min_b``
family of seeds 0-9.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fpkit as fp
import fpkit.cli

from stats import FAILED, SCHEME_RESULTS, Verdict, classify

EPS_ABS = 1e-9
B_SOLVE = 3.0
LAM = 0.25


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    judge: Callable[[object], Verdict]
    out: Path | None = None  # artifact directory of a CLI op


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op
    cleanup: Callable[[], None] = field(default=lambda: None)


def _wrong(reason: str) -> Verdict:
    return Verdict(FAILED, reason, wrong=True)


# --- oracles -----------------------------------------------------------------

_NP_ORD = {"l1": 1, "l2": 2, "linf": np.inf}


def affine_fixed_point_error(A: np.ndarray, c: np.ndarray, x: np.ndarray) -> str | None:
    """None when x agrees with the exact fixed point of x -> A x + c.

    The stop rule bounds ||T x - x|| by (||A|| + 5) * EPS_ABS for every
    scheme used here (lambda >= 1/4), so ||x - x*|| <= ||(I - A)^-1|| times
    that, plus rounding in the size of x*.
    """
    eye = np.eye(A.shape[0])
    x_star = np.linalg.solve(eye - A, c)
    kappa = 1.0 / np.linalg.svd(eye - A, compute_uv=False)[-1]
    bound = kappa * (np.linalg.norm(A, 2) + 5.0) * EPS_ABS + 1e-9 * (1.0 + np.linalg.norm(x_star))
    err = float(np.linalg.norm(x - x_star))
    return None if err <= bound else f"fixed point off by {err:.3e} > {bound:.3e}"


def min_b_error(A: np.ndarray, kind: str, norm: str, b: float | None) -> str | None:
    """None when b is the least feasible b (to within the search tolerance).

    g(t) = ||tI + A|| - rhs(t) is convex in t. For None (no feasible b up to
    B_CAP) the oracle checks g at B_CAP, where the non-increasing enriched g
    is least, and at the minimiser that a ternary search finds for the
    modified g.
    """
    eye = np.eye(A.shape[0])

    def g(t: float) -> float:
        rhs = t + 1.0 if kind == "enriched" else 1.0
        return float(np.linalg.norm(t * eye + A, _NP_ORD[norm])) - rhs

    if b is None:
        lo, hi = 0.0, 2.0 * float(np.linalg.norm(A, _NP_ORD[norm])) + 1.0
        for _ in range(100):
            m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            lo, hi = (lo, m2) if g(m1) <= g(m2) else (m1, hi)
        least = min(g(fp.B_CAP), g(0.5 * (lo + hi)))
        return None if least > -1e-9 else f"reported infeasible, but g={least:.3e} somewhere"
    if g(b) > 1e-7 * max(1.0, b):
        return f"b={b!r} is infeasible (g={g(b):.3e})"
    below = b - 1e-6 * max(1.0, b)
    if below >= 0.0 and g(below) < -1e-9:
        return f"b={b!r} is not least: g({below!r})={g(below):.3e}"
    return None


def sampled_ratio_error(A: np.ndarray, b: float, kind: str, max_ratio: float, slack: float) -> str | None:
    """None when a sampled l2 ratio stays within the exact affine ratio plus slack."""
    exact = float(np.linalg.norm(b * np.eye(A.shape[0]) + A, 2))
    if kind == "enriched":
        exact /= b + 1.0
    if max_ratio <= exact + slack:
        return None
    return f"sampled ratio {max_ratio!r} exceeds exact {exact!r} + slack"


# --- seeded inputs -------------------------------------------------------------

# Seeds of the fixed inputs that scripts/run_demo_solves.py and
# scripts/run_family_bench.py use by default.
DEMO_SEED = 20260814
SCRIPT_FAMILY_SEED = 2000


def _spectrum(shape: str, dim: int) -> np.ndarray:
    """A matrix with a prescribed spectrum, so iteration counts barely depend on the seed.

    ``expansive``: eigenvalues linspace(-1.8, 0.6, d) (just -1.8 in 1-d); the
    top singular value 1.8 makes plain Picard diverge, as on x -> 100 - 2x,
    while the averaged map with lambda = 1/4 contracts by 0.9 (0.3 in 1-d).
    ``transient``: eigenvalues linspace(-0.9, 0.8, d) with 0.9 on every other
    superdiagonal entry; the top singular value exceeds 1 but the spectral
    radius is 0.9, so Picard converges after transient growth. Needs d >= 2.
    ``contractive``: eigenvalues linspace(-0.9, 0.5, d), a contraction by 0.9,
    so Picard converges even after a box projection (which with the other
    shapes can leave it in a 2-cycle until max_iter).
    """
    if shape == "expansive":
        return np.diag(np.linspace(-1.8, 0.6, dim)) if dim > 1 else np.array([[-1.8]])
    if shape == "contractive":
        return np.diag(np.linspace(-0.9, 0.5, dim))
    M = np.diag(np.linspace(-0.9, 0.8, dim))
    M[np.arange(0, dim - 1, 2), np.arange(1, dim, 2)] = 0.9
    return M


def _family(seed: int, dim: int, shape: str, count: int) -> list:
    """Seeded affine maps W M W^T + c: W orthogonal and c uniform in [-10, 10]^d.

    W and c come from ``generate_affine_family`` with unit singular values;
    M is ``_spectrum(shape, dim)``.
    """
    M = _spectrum(shape, dim)
    return [fp.Affine(w.matrix @ M @ w.matrix.T, w.offset)
            for w in fp.generate_affine_family(seed, dim, np.ones(dim), count)]


def _box(dim: int, radius: float) -> "fp.BoxProjection":
    return fp.BoxProjection(-radius * np.ones(dim), radius * np.ones(dim))


def _np_box_affine(A, c, r):
    return lambda x: np.clip(A @ x + c, -r, r)


def _np_rot_box(theta, lo, hi):
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return lambda x: np.clip(R @ x, lo, hi)


def _iteration_judge(affine=None, np_map=None):
    """Judge for picard / krasnoselskij traces and SolveResults."""

    def judge(result) -> Verdict:
        trace = result.trace if isinstance(result, fp.SolveResult) else result
        status = trace.status.value
        outcome = classify(status=status)
        verdict = Verdict(outcome, status, steps=trace.iterations)
        if status != "converged":
            return verdict
        x = np.asarray(trace.final)
        if affine is not None:
            err = affine_fixed_point_error(*affine, x)
        else:
            r = float(np.linalg.norm(np_map(x) - x))
            err = None if r <= 1e-7 * max(1.0, float(np.linalg.norm(x))) else f"||T x - x|| = {r:.3e}"
        if err is not None:
            return Verdict(FAILED, err, wrong=True, steps=trace.iterations)
        return verdict

    return judge


def _iteration_ops(mapping, x0, stop, affine=None, np_map=None) -> list[Op]:
    judge = _iteration_judge(affine, np_map)
    return [
        Op("picard", lambda: fp.picard(mapping, x0, stop), judge),
        Op("krasnoselskij", lambda: fp.krasnoselskij(mapping, LAM, x0, stop), judge),
        Op("solve_modified", lambda: fp.solve_modified(mapping, B_SOLVE, x0, stop), judge),
    ]


# --- iterate -------------------------------------------------------------------

# (dim, spectrum shape, maps per pass); each map runs under all three schemes.
ITERATE_FAMILIES = [
    (1, "expansive", 4),
    (2, "expansive", 2), (2, "transient", 2),
    (8, "expansive", 2), (8, "transient", 2),
    (64, "expansive", 2), (64, "transient", 2),
]
BOX_RADIUS = 4.0
ROTATIONS = (0.5, 1.5, 2.5)


def build_iterate(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    stop = fp.StopRule(eps_abs=EPS_ABS)
    ops: list[Op] = []

    # scripts/run_demo_solves.py, with its default seed: x -> 100 - 2x at b = 3.
    demo = fp.line_map(-2.0, 100.0)
    demo_affine = (np.array([[-2.0]]), np.array([100.0]))
    for x0 in [0.0, *np.random.default_rng(DEMO_SEED).uniform(-1e6, 1e6, 10)]:
        ops.append(
            Op("solve_modified", lambda x0=np.array([x0]): fp.solve_modified(demo, B_SOLVE, x0, stop),
               _iteration_judge(demo_affine))
        )

    # scripts/run_family_bench.py, with its default seed: 12 maps in 2-d,
    # singular values (1.8, 0.9), started from 0.
    for m in fp.generate_affine_family(SCRIPT_FAMILY_SEED, 2, [1.8, 0.9], 12):
        ops += _iteration_ops(m, np.zeros(2), stop, affine=(m.matrix, m.offset))

    # Seeded affine families from seeded starts.
    for dim, shape, count in ITERATE_FAMILIES:
        for m in _family(seed + dim, dim, shape, count):
            x0 = rng.uniform(-10.0, 10.0, dim)
            ops += _iteration_ops(m, x0, stop, affine=(m.matrix, m.offset))

    # Non-affine maps: a box projection after an 8-d affine map, or after a
    # plane rotation. No single (A, c) pair represents them. Box sizes and
    # angles are fixed so that step counts stay put from seed to seed.
    for m in _family(seed + 100, 8, "contractive", 3):
        mapping = fp.Composition((m, _box(8, BOX_RADIUS)))
        ops += _iteration_ops(mapping, rng.uniform(-10.0, 10.0, 8), stop,
                              np_map=_np_box_affine(m.matrix, m.offset, BOX_RADIUS))
    for theta in ROTATIONS:
        lo, hi = np.array([0.5, 1.0]), np.array([2.0, 2.5])
        mapping = fp.Composition((fp.Rotation(theta), fp.BoxProjection(lo, hi)))
        ops += _iteration_ops(mapping, rng.uniform(-10.0, 10.0, 2), stop,
                              np_map=_np_rot_box(theta, lo, hi))

    return Workload(ops, warmup=ops[0])


# --- certify -------------------------------------------------------------------

VERIFY_DIMS = (2, 8, 64)
VERIFY_MAPS = 4  # per dimension and kind: even ones affine, odd ones box-projected
MIN_B_SEEDS = range(10)
MIN_B_DIMS = (2, 4, 8)
KINDS = ("enriched", "modified")
NORMS = ("l1", "l2", "linf")


def _verify_judge(A, b, kind, np_map):
    def judge(report) -> Verdict:
        pairs = report.pairs_tested
        if report.passed != (report.max_ratio <= 1.0 + report.slack):
            return Verdict(FAILED, "passed flag disagrees with max_ratio", wrong=True, pairs=pairs)
        if A is not None:
            err = sampled_ratio_error(A, b, kind, report.max_ratio, report.slack)
        else:
            x, y = report.witness_x, report.witness_y
            lhs = np.linalg.norm(b * (x - y) + np_map(x) - np_map(y))
            rhs = np.linalg.norm(x - y) * (b + 1.0 if kind == "enriched" else 1.0)
            ratio = lhs / rhs
            # T(x) - T(y) cancels for pairs ~1e-3 apart in a box of radius 100
            ok = abs(ratio - report.max_ratio) <= 1e-7 * max(1.0, ratio)
            err = None if ok else f"witness ratio {ratio!r} != max_ratio {report.max_ratio!r}"
        if err is not None:
            return Verdict(FAILED, err, wrong=True, pairs=pairs)
        status = "passed" if report.passed else "refuted"
        return Verdict(classify(status=status), status, pairs=pairs)

    return judge


def _min_b_judge(A, kind, norm):
    def judge(b) -> Verdict:
        err = min_b_error(A, kind, norm, b)
        if err is not None:
            return _wrong(err)
        status = "infeasible" if b is None else "found"
        return Verdict(classify(status=status), status)

    return judge


def _min_b_matrix(seed: int, dim: int) -> np.ndarray:
    """ROADMAP's l2 min_b test family: generate_affine_family(seed, d, linspace(0.1, 1.8, d))."""
    return fp.generate_affine_family(seed, dim, np.linspace(0.1, 1.8, dim), 1)[0].matrix


def build_certify(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []

    # Sampled condition checks with the default 10k-pair sampler, seeded.
    for dim in VERIFY_DIMS:
        maps = fp.generate_affine_family(seed + dim, dim, np.linspace(0.1, 1.8, dim), VERIFY_MAPS)
        for kind in KINDS:
            for i, m in enumerate(maps):
                b = float(rng.uniform(0.5, 4.0))
                sampler = fp.PairSampler(seed=int(rng.integers(2**31)))
                if i % 2 == 0:
                    mapping, A, np_map = m, m.matrix, None
                else:
                    r = float(rng.uniform(2.0, 8.0))
                    mapping = fp.Composition((m, _box(dim, r)))
                    A, np_map = None, _np_box_affine(m.matrix, m.offset, r)
                ops.append(Op(
                    "verify",
                    lambda mapping=mapping, b=b, kind=kind, sampler=sampler: fp.verify_condition(
                        mapping, b, kind, sampler),
                    _verify_judge(A, b, kind, np_map),
                ))

    # Least-b searches over ROADMAP's fixed family: one map per seed 0-9.
    for s in MIN_B_SEEDS:
        for dim in MIN_B_DIMS:
            A = _min_b_matrix(s, dim)
            for kind in KINDS:
                for norm in NORMS:
                    ops.append(Op(
                        "min_b",
                        lambda A=A, kind=kind, norm=norm: fp.min_b_affine(A, kind, norm),
                        _min_b_judge(A, kind, norm),
                    ))

    return Workload(ops, warmup=ops[0])


# --- cli -----------------------------------------------------------------------

# Malformed configs from ROADMAP item 4; each must exit 2. The sampler.count
# 1e9 config is deliberately absent: running it would allocate ~1e9 x d floats.
MALFORMED = [
    ("solve", {"b": "abc"}),
    ("verify", {"seed": "x"}),
    ("iterate", {"stop": {"eps_abs": EPS_ABS, "max_iter": 2.5}}),
    ("solve", {"verify": "false"}),
    ("verify", {"slack": -1e-3}),
]


def _run_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fpkit.cli.main(argv)


def _artifacts(out: Path) -> dict[str, bytes]:
    """Every artifact but summary.json, which carries wall time by design."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "summary.json"}


class _CliCase:
    """One pre-written config and the command that runs it."""

    def __init__(self, workdir: Path, idx: int, command: str, doc: dict, flags=(),
                 expected_exit: int | None = None, oracle=None):
        self.config = workdir / "configs" / f"{idx:03d}.json"
        self.config.write_text(json.dumps(doc))
        self.out = workdir / "out" / f"{idx:03d}"
        self.rerun = workdir / "rerun" / f"{idx:03d}"
        self.command = command
        self.flags = list(flags)
        self.expected_exit = expected_exit
        self.oracle = oracle
        self.rerun_checked = False

    def argv(self, out: Path) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(out), *self.flags]

    def op(self) -> Op:
        return Op(f"cli.{self.command}", lambda: _run_cli(self.argv(self.out)), self.judge, self.out)

    def judge(self, code) -> Verdict:
        if self.expected_exit is not None:  # malformed config, bench or gen
            status = None
            expected = self.expected_exit
        elif code not in (0, 1):
            return Verdict(FAILED, f"exit {code} on a valid config")
        else:
            summary = json.loads((self.out / "summary.json").read_text())
            status = summary["status"]
            expected = 1 if status in SCHEME_RESULTS or status.startswith("error:") else 0
        outcome = classify(status=status, exit_code=code, expected_exit=expected)
        reason = f"exit {code}" + (f" ({status})" if status else "")
        if code != expected:
            return Verdict(FAILED, f"{reason}, expected exit {expected}")
        if code == 2:
            return Verdict(outcome, reason)
        err = self.oracle(self.out) if self.oracle is not None else None
        if err is None and not self.rerun_checked:
            self.rerun_checked = True
            err = self._rerun_error()
        if err is not None:
            return _wrong(err)
        return Verdict(outcome, reason)

    def _rerun_error(self) -> str | None:
        shutil.rmtree(self.rerun, ignore_errors=True)
        code = _run_cli(self.argv(self.rerun))
        first, second = _artifacts(self.out), _artifacts(self.rerun)
        shutil.rmtree(self.rerun, ignore_errors=True)
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            return f"rerun artifacts differ: {diff} (rerun exit {code})"
        return None


def _solve_oracle(A, c):
    def oracle(out: Path) -> str | None:
        summary = json.loads((out / "summary.json").read_text())
        if summary["status"] != "converged":
            return None
        return affine_fixed_point_error(A, c, np.array(summary["fixed_point"]))

    return oracle


def _min_b_oracle(A, kind, norm):
    def oracle(out: Path) -> str | None:
        summary = json.loads((out / "summary.json").read_text())
        if summary["status"] not in ("found", "infeasible"):
            return None
        return min_b_error(A, kind, norm, summary["min_b"])

    return oracle


def _verify_oracle(A, b, kind):
    def oracle(out: Path) -> str | None:
        report = json.loads((out / "summary.json").read_text())["report"]
        return sampled_ratio_error(A, b, kind, report["max_ratio"], report["slack"])

    return oracle


def _rows_oracle(name: str, rows: int):
    def oracle(out: Path) -> str | None:
        n = len((out / name).read_text().splitlines())
        return None if n == rows else f"{name} has {n} lines, expected {rows}"

    return oracle


def build_cli(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    for sub in ("configs", "out", "rerun"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    cases: list[_CliCase] = []

    def add(command, doc, **kw):
        cases.append(_CliCase(workdir, len(cases), command, doc, **kw))

    stop = {"eps_abs": EPS_ABS}
    demo = fp.line_map(-2.0, 100.0)
    maps = {(dim, shape): _family(seed + 10 * dim + k, dim, shape, 4)
            for dim in (2, 8) for k, shape in enumerate(("expansive", "transient"))}

    # solve --verify at b = 3: the demo and seeded expansive maps.
    for m in [demo] * 4 + maps[2, "expansive"] + maps[8, "expansive"]:
        x0 = rng.uniform(-10.0, 10.0, m.dim).tolist()
        add("solve", {"mapping": fp.serialize_mapping(m), "b": B_SOLVE, "x0": x0, "stop": stop,
                      "seed": int(rng.integers(2**31))},
            flags=["--verify"], oracle=_solve_oracle(m.matrix, m.offset))

    # verify: affine maps (checked against the exact l2 ratio) and box-projected ones.
    for i, m in enumerate(maps[2, "transient"] + maps[8, "transient"] + maps[8, "expansive"]):
        kind = KINDS[i % 2]
        b = float(rng.uniform(0.5, 4.0))
        doc = {"b": b, "kind": kind, "seed": int(rng.integers(2**31))}
        if i < 8:
            add("verify", {"mapping": fp.serialize_mapping(m), **doc}, oracle=_verify_oracle(m.matrix, b, kind))
        else:
            box = _box(m.dim, BOX_RADIUS)
            add("verify", {"mapping": fp.serialize_mapping(fp.Composition((m, box))), **doc})

    # min-b in every norm and kind, over two fixed maps of ROADMAP's family.
    for dim in (2, 4):
        A = _min_b_matrix(0, dim)
        for kind in KINDS:
            for norm in NORMS:
                doc = {"mapping": {"kind": "affine", "matrix": A.tolist(), "offset": [0.0] * dim},
                       "kind": kind, "norm": norm}
                add("min-b", doc, oracle=_min_b_oracle(A, kind, norm))

    # iterate: picard and krasnoselskij on seeded maps, half storing iterates.
    for i, m in enumerate(maps[2, "transient"] + maps[8, "transient"] + maps[2, "expansive"]):
        x0 = rng.uniform(-10.0, 10.0, m.dim).tolist()
        scheme = {"scheme": "picard"} if i % 2 == 0 else {"scheme": "krasnoselskij", "lambda": LAM}
        add("iterate", {"mapping": fp.serialize_mapping(m), **scheme, "x0": x0, "stop": stop,
                        "store_iterates": i % 4 < 2})
    # Slow averaged runs on x -> c - x/2: a few thousand steps each, so
    # writing trace.csv is a real share of the op.
    for i, lam in enumerate((0.01, 0.005) * 4):
        m = fp.line_map(-0.5, float(rng.uniform(-50.0, 50.0)))
        add("iterate", {"mapping": fp.serialize_mapping(m), "scheme": "krasnoselskij", "lambda": lam,
                        "x0": [float(rng.uniform(-1e3, 1e3))], "stop": {"eps_abs": 1e-12},
                        "store_iterates": i % 2 == 0})

    # bench: the family generator of scripts/run_family_bench.py, 4 maps each,
    # at that script's seed and the five after it.
    schemes = [{"scheme": "picard"}, {"scheme": "krasnoselskij", "lambda": LAM},
               {"scheme": "solve_modified", "b": B_SOLVE}]
    for k in range(6):
        fam = {"seed": SCRIPT_FAMILY_SEED + k, "dim": 2, "singular_values": [1.8, 0.9], "count": 4}
        add("bench", {"family": fam, "schemes": schemes, "stop": stop}, expected_exit=0,
            oracle=_rows_oracle("bench.csv", 1 + 4 * len(schemes)))

    # gen: families up to the dimension cap.
    for dim in (2, 8, 64) * 2:
        doc = {"seed": int(rng.integers(2**31)), "dim": dim,
               "singular_values": np.linspace(0.1, 1.8, dim).tolist(), "count": 4}
        add("gen", doc, expected_exit=0)

    # Malformed configs, one of each kind: they must exit 2.
    base = fp.serialize_mapping(demo)
    for command, bad in MALFORMED:
        doc = {"mapping": base, "b": B_SOLVE, "x0": [0.0], "kind": "modified", "stop": stop, **bad}
        if command == "iterate":
            doc.pop("b")
        add(command, doc, expected_exit=2)

    ops = [c.op() for c in cases]
    return Workload(ops, warmup=ops[0], cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


BUILDERS = {"iterate": build_iterate, "certify": build_certify, "cli": build_cli}
