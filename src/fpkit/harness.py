"""Experiment harness: declarative configs, reproducible run directories,
random affine families with prescribed spectra, and scheme benchmarking.

A run directory contains ``config.json`` (the canonicalized config echo),
``trace.csv`` (iteration trace; header only for schemes that do not iterate)
and ``summary.json``. Identical configs produce byte-identical trace files;
``summary.json`` differs only in wall time.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .enrichment import (
    DEFAULT_SLACK,
    ConditionKind,
    EnrichmentReport,
    PairSampler,
    min_b_affine,
    verify_condition,
)
from .errors import (
    ConfigError,
    FpkitError,
    InsufficientData,
    InvariantViolation,
    IoError,
    ParameterOutOfRange,
    SchemaError,
)
from .iteration import (
    IterationTrace,
    StopRule,
    empirical_ratio,
    krasnoselskij,
    picard,
    solve_modified,
    write_trace_csv,
)
from .mappings import Affine, Mapping, _num, as_affine, parse_mapping, serialize_mapping
from .spaces import DIM_CAP, NormKind, as_vector, norm


class Scheme(str, Enum):
    PICARD = "picard"
    KRASNOSELSKIJ = "krasnoselskij"
    SOLVE_MODIFIED = "solve_modified"
    VERIFY = "verify"
    MIN_B = "min_b"


_ITERATIVE = {Scheme.PICARD, Scheme.KRASNOSELSKIJ, Scheme.SOLVE_MODIFIED}


@dataclass
class ExperimentConfig:
    mapping: Mapping
    scheme: Scheme
    norm_kind: NormKind = NormKind.L2
    b: float | None = None
    lam: float | None = None
    kind: ConditionKind | None = None
    x0: np.ndarray | None = None
    stop: StopRule = field(default_factory=StopRule)
    sampler: PairSampler | None = None
    slack: float = DEFAULT_SLACK
    verify: bool = False
    store_iterates: bool = False
    seed: int = 42
    output_dir: str | None = None

    def validate(self) -> None:
        scheme = self.scheme
        if scheme in _ITERATIVE:
            if self.x0 is None:
                raise ConfigError(f"x0: required for scheme {scheme.value}")
            if self.x0.size != self.mapping.dim:
                raise ConfigError(
                    f"x0: dimension {self.x0.size} does not match mapping dimension {self.mapping.dim}"
                )
        if scheme is Scheme.KRASNOSELSKIJ:
            if self.lam is None or not (0.0 < self.lam < 1.0):
                raise ConfigError(f"lambda: must lie in (0, 1) for scheme krasnoselskij, got {self.lam}")
        if scheme is Scheme.SOLVE_MODIFIED:
            if self.b is None or not self.b > 0.0:
                raise ConfigError(f"b: must be > 0 for scheme solve_modified, got {self.b}")
        if scheme is Scheme.VERIFY:
            if self.b is None or self.b < 0.0:
                raise ConfigError(f"b: must be >= 0 for scheme verify, got {self.b}")
            if self.kind is None:
                raise ConfigError("kind: required for scheme verify")
        if scheme is Scheme.MIN_B:
            if self.kind is None:
                raise ConfigError("kind: required for scheme min_b")
            if as_affine(self.mapping) is None:
                raise ConfigError("mapping: scheme min_b needs an affine-representable mapping")

    def effective_sampler(self) -> PairSampler:
        return self.sampler if self.sampler is not None else PairSampler(seed=self.seed)


def parse_config(doc: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config: expected an object, got {type(doc).__name__}")
    known = {
        "mapping", "scheme", "norm", "b", "lambda", "kind", "x0", "stop",
        "sampler", "slack", "verify", "store_iterates", "seed", "output_dir",
    }
    unknown = doc.keys() - known
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown config field")
    for req in ("mapping", "scheme"):
        if req not in doc:
            raise ConfigError(f"{req}: missing field")
    try:
        mapping = parse_mapping(doc["mapping"])
    except (SchemaError, InvariantViolation) as e:
        raise ConfigError(f"mapping: {e}") from e
    try:
        scheme = Scheme(doc["scheme"])
    except ValueError:
        raise ConfigError(f"scheme: unknown scheme {doc['scheme']!r}") from None
    norm_kind = _norm_field(doc.get("norm", "l2"))
    kind = None
    if doc.get("kind") is not None:
        try:
            kind = ConditionKind(doc["kind"])
        except ValueError:
            raise ConfigError(f"kind: unknown condition kind {doc['kind']!r}") from None
    x0 = None
    if doc.get("x0") is not None:
        try:
            x0 = as_vector(doc["x0"], name="x0")
        except InvariantViolation as e:
            raise ConfigError(str(e)) from e
    try:
        stop = StopRule(**doc.get("stop", {}))
    except (TypeError, ParameterOutOfRange) as e:
        raise ConfigError(f"stop: {e}") from e
    sampler = None
    if doc.get("sampler") is not None:
        try:
            sampler = PairSampler(**doc["sampler"])
        except (TypeError, ParameterOutOfRange) as e:
            raise ConfigError(f"sampler: {e}") from e

    slack = _number(doc.get("slack", DEFAULT_SLACK), "slack")
    if slack < 0.0:
        raise ConfigError(f"slack: must be >= 0, got {slack}")

    cfg = ExperimentConfig(
        mapping=mapping,
        scheme=scheme,
        norm_kind=norm_kind,
        b=None if doc.get("b") is None else _number(doc["b"], "b"),
        lam=None if doc.get("lambda") is None else _number(doc["lambda"], "lambda"),
        kind=kind,
        x0=x0,
        stop=stop,
        sampler=sampler,
        slack=slack,
        verify=_flag(doc.get("verify", False), "verify"),
        store_iterates=_flag(doc.get("store_iterates", False), "store_iterates"),
        seed=_nonneg_int(doc.get("seed", 42), "seed"),
        output_dir=_output_dir(doc),
    )
    cfg.validate()
    return cfg


def _output_dir(doc: dict) -> str | None:
    v = doc.get("output_dir")
    if v is not None and not isinstance(v, str):
        raise ConfigError("output_dir: expected a string")
    return v


def _norm_field(v) -> NormKind:
    try:
        return NormKind(v)
    except ValueError:
        raise ConfigError(f"norm: unknown norm {v!r}") from None


def _number(v, name: str) -> float:
    try:
        return _num(v, name)
    except (SchemaError, InvariantViolation) as e:
        raise ConfigError(str(e)) from None


def _flag(v, name: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{name}: expected true or false")
    return v


def _nonneg_int(v, name: str) -> int:
    """A config integer that must be >= 0 (a seed, a dimension or a count)."""
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ConfigError(f"{name}: expected a non-negative integer")
    return v


def config_to_doc(cfg: ExperimentConfig) -> dict:
    """Canonical JSON document for a config, with every default materialized."""
    sampler = cfg.effective_sampler()
    return {
        "mapping": serialize_mapping(cfg.mapping),
        "scheme": cfg.scheme.value,
        "norm": cfg.norm_kind.value,
        "b": cfg.b,
        "lambda": cfg.lam,
        "kind": None if cfg.kind is None else cfg.kind.value,
        "x0": None if cfg.x0 is None else cfg.x0.tolist(),
        "stop": {
            "eps_abs": cfg.stop.eps_abs,
            "eps_rel": cfg.stop.eps_rel,
            "max_iter": cfg.stop.max_iter,
            "norm_cap": cfg.stop.norm_cap,
        },
        "sampler": {
            "seed": sampler.seed,
            "count": sampler.count,
            "box_radius": sampler.box_radius,
            "near_pair_fraction": sampler.near_pair_fraction,
        },
        "slack": cfg.slack,
        "verify": cfg.verify,
        "store_iterates": cfg.store_iterates,
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
    }


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(cfg: ExperimentConfig) -> str:
    """Hex digest identifying the canonicalized config (output_dir excluded)."""
    doc = config_to_doc(cfg)
    doc.pop("output_dir")
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


@dataclass
class RunSummary:
    digest: str
    scheme: Scheme
    status: str
    wall_time: float
    artifacts: dict[str, str]
    iterations: int | None = None
    fixed_point: list[float] | None = None
    lam: float | None = None
    residual_T: float | None = None
    report: EnrichmentReport | None = None
    min_b: float | None = None

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "scheme": self.scheme.value,
            "status": self.status,
            "wall_time": self.wall_time,
            "artifacts": self.artifacts,
            "iterations": self.iterations,
            "fixed_point": self.fixed_point,
            "lambda": self.lam,
            "residual_T": self.residual_T,
            "report": None if self.report is None else self.report.to_dict(),
            "min_b": self.min_b,
        }


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RunSummary:
    """Execute one configured run and persist its artifacts.

    Scheme-level failures (divergence, a refuted condition, no feasible b)
    land in the summary's status; they are results, not exceptions. Raises
    ConfigError for invalid configs and IoError when artifacts cannot be
    written.
    """
    cfg.validate()
    target = out_dir if out_dir is not None else cfg.output_dir
    if target is None:
        raise ConfigError("output_dir: required (set it in the config or pass out_dir)")
    out = Path(target)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create output directory {out}: {e}") from e

    summary = RunSummary(
        digest=config_digest(cfg),
        scheme=cfg.scheme,
        status="",
        wall_time=0.0,
        artifacts={"config": "config.json", "trace": "trace.csv", "summary": "summary.json"},
    )
    trace: IterationTrace | None = None
    t0 = time.perf_counter()
    try:
        if cfg.scheme is Scheme.PICARD:
            trace = picard(cfg.mapping, cfg.x0, cfg.stop, cfg.norm_kind,
                           store_iterates=cfg.store_iterates)
            summary.status = trace.status.value
        elif cfg.scheme is Scheme.KRASNOSELSKIJ:
            trace = krasnoselskij(cfg.mapping, cfg.lam, cfg.x0, cfg.stop, cfg.norm_kind,
                                  store_iterates=cfg.store_iterates)
            summary.lam = cfg.lam
            summary.status = trace.status.value
        elif cfg.scheme is Scheme.SOLVE_MODIFIED:
            result = solve_modified(
                cfg.mapping, cfg.b, cfg.x0, cfg.stop, cfg.norm_kind, cfg.verify,
                sampler=cfg.effective_sampler(), slack=cfg.slack,
                store_iterates=cfg.store_iterates,
            )
            trace = result.trace
            summary.status = trace.status.value
            summary.fixed_point = result.fixed_point.tolist()
            summary.lam = result.lam
            summary.residual_T = result.residual_T
            summary.report = result.condition_verified
        elif cfg.scheme is Scheme.VERIFY:
            report = verify_condition(
                cfg.mapping, cfg.b, cfg.kind, cfg.effective_sampler(),
                slack=cfg.slack, norm_kind=cfg.norm_kind,
            )
            summary.report = report
            summary.status = "passed" if report.passed else "refuted"
        else:  # MIN_B
            A, _ = as_affine(cfg.mapping)
            value = min_b_affine(A, cfg.kind, cfg.norm_kind)
            summary.min_b = value
            summary.status = "found" if value is not None else "infeasible"
    except FpkitError as e:
        summary.status = f"error:{type(e).__name__}"
    summary.wall_time = time.perf_counter() - t0
    if trace is not None:
        summary.iterations = trace.iterations
        if summary.fixed_point is None:
            summary.fixed_point = trace.final.tolist()

    try:
        (out / "config.json").write_text(canonical_json(config_to_doc(cfg)) + "\n")
        if trace is not None:
            write_trace_csv(trace, out / "trace.csv")
        else:
            (out / "trace.csv").write_text("iter,residual,ratio\n")
        (out / "summary.json").write_text(json.dumps(summary.to_dict(), indent=2) + "\n")
    except OSError as e:
        raise IoError(f"cannot write artifacts under {out}: {e}") from e
    return summary


def generate_affine_family(
    seed: int, dim: int, singular_values, count: int
) -> list[Affine]:
    """Random affine maps with exactly the prescribed l2 singular values.

    Each map is U diag(s) V^T with U, V drawn as QR factors of Gaussian
    matrices (signs fixed to make the factorization unambiguous) and an
    offset uniform in [-10, 10]^dim. Deterministic per seed.
    """
    if not 1 <= dim <= DIM_CAP:
        raise ParameterOutOfRange(f"dim must be in [1, {DIM_CAP}]")
    if count < 0:
        raise ParameterOutOfRange("count must be >= 0")
    try:
        s = np.asarray(singular_values, dtype=float)
    except (TypeError, ValueError):
        raise ParameterOutOfRange("singular_values must be a list of numbers") from None
    if s.ndim != 1 or s.size != dim:
        raise ParameterOutOfRange(f"singular_values must be a list of length dim={dim}")
    if not np.all(np.isfinite(s)) or np.any(s < 0):
        raise ParameterOutOfRange("singular_values must be finite and >= 0")

    rng = np.random.default_rng(seed)
    family = []
    for _ in range(count):
        u = _random_orthogonal(rng, dim)
        v = _random_orthogonal(rng, dim)
        matrix = (u * s) @ v.T
        offset = rng.uniform(-10.0, 10.0, size=dim)
        family.append(Affine(matrix, offset))
    return family


def _random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@dataclass
class BenchScheme:
    """One column of a benchmark: a scheme plus its parameter, if any."""

    scheme: Scheme
    lam: float | None = None
    b: float | None = None

    def __post_init__(self):
        self.scheme = Scheme(self.scheme)
        if self.scheme is Scheme.KRASNOSELSKIJ and (self.lam is None or not 0 < self.lam < 1):
            raise ConfigError(f"lambda: must lie in (0, 1) for krasnoselskij, got {self.lam}")
        if self.scheme is Scheme.SOLVE_MODIFIED and (self.b is None or not self.b > 0):
            raise ConfigError(f"b: must be > 0 for solve_modified, got {self.b}")
        if self.scheme not in _ITERATIVE:
            raise ConfigError(f"scheme: {self.scheme.value} cannot be benchmarked")

    @property
    def label(self) -> str:
        if self.scheme is Scheme.KRASNOSELSKIJ:
            return f"krasnoselskij[lambda={self.lam!r}]"
        if self.scheme is Scheme.SOLVE_MODIFIED:
            return f"solve_modified[b={self.b!r}]"
        return "picard"


def bench_compare(
    family: list[Mapping],
    schemes: list[BenchScheme],
    stop: StopRule | None = None,
    norm_kind: NormKind = NormKind.L2,
    x0=None,
) -> list[dict]:
    """Run every scheme on every mapping; one row per (mapping, scheme) cell.

    Rows carry status, iteration count and the empirical residual ratio
    (blank when the trace is too short to estimate one). A failure in one
    cell is recorded in that row's status and the sweep continues.
    """
    stop = stop if stop is not None else StopRule()
    rows = []
    for i, mapping in enumerate(family):
        start = np.zeros(mapping.dim) if x0 is None else as_vector(x0, name="x0")
        for sch in schemes:
            row = {"mapping": i, "scheme": sch.label, "status": "", "iterations": "", "empirical_ratio": ""}
            try:
                if sch.scheme is Scheme.PICARD:
                    trace = picard(mapping, start, stop, norm_kind)
                elif sch.scheme is Scheme.KRASNOSELSKIJ:
                    trace = krasnoselskij(mapping, sch.lam, start, stop, norm_kind)
                else:
                    trace = solve_modified(mapping, sch.b, start, stop, norm_kind).trace
                row["status"] = trace.status.value
                row["iterations"] = trace.iterations
                try:
                    row["empirical_ratio"] = empirical_ratio(trace)
                except InsufficientData:
                    pass
            except FpkitError as e:
                row["status"] = f"error:{type(e).__name__}"
            rows.append(row)
    return rows


def write_bench_csv(rows: list[dict], path) -> None:
    import csv

    try:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["mapping", "scheme", "status", "iterations", "empirical_ratio"],
                lineterminator="\n",
            )
            writer.writeheader()
            writer.writerows(rows)
    except OSError as e:
        raise IoError(f"cannot write benchmark CSV {path}: {e}") from e
