"""Experiment harness: declarative configs, reproducible run directories,
random affine families with prescribed spectra, and scheme benchmarking.

A run directory contains ``config.json`` (the canonicalized config echo),
``trace.csv`` (iteration trace; header only for schemes that do not iterate)
and ``summary.json``. Identical configs produce byte-identical trace files;
``summary.json`` differs only in wall time.

Every document level reads its fields through one table, ``_FIELDS``, and
refuses any other field. Every run, an experiment or a ``bench`` cell, goes
through one scheme dispatch, ``_dispatch``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
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
from .spaces import DIM_CAP, NormKind, as_vector


class Scheme(str, Enum):
    PICARD = "picard"
    KRASNOSELSKIJ = "krasnoselskij"
    SOLVE_MODIFIED = "solve_modified"
    VERIFY = "verify"
    MIN_B = "min_b"


_ITERATIVE = {Scheme.PICARD, Scheme.KRASNOSELSKIJ, Scheme.SOLVE_MODIFIED}


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, checked when built: an invalid config raises
    ConfigError and is never constructed, so no caller validates again."""

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
    # Echoed in config.json and the digest only: no artifact holds iterates,
    # so _dispatch does not ask the schemes to store them.
    store_iterates: bool = False
    seed: int = 42
    output_dir: str | None = None

    def __post_init__(self) -> None:
        _check_parameters(self.scheme, self.b, self.lam, self.kind)
        if self.scheme in _ITERATIVE:
            if self.x0 is None:
                raise ConfigError(f"x0: required for scheme {self.scheme.value}")
            if self.x0.size != self.mapping.dim:
                raise ConfigError(
                    f"x0: dimension {self.x0.size} does not match mapping dimension {self.mapping.dim}"
                )
        if self.scheme is Scheme.MIN_B:
            form = as_affine(self.mapping)
            if form is None:
                raise ConfigError("mapping: scheme min_b needs an affine-representable mapping")
            if not (np.isfinite(form[0]).all() and np.isfinite(form[1]).all()):
                raise ConfigError("mapping: its affine form overflows to non-finite entries")

    def effective_sampler(self) -> PairSampler:
        return self.sampler if self.sampler is not None else PairSampler(seed=self.seed)


def _check_parameters(scheme: Scheme, b, lam, kind) -> None:
    """A scheme's checks of its own parameters, which need no mapping."""
    if scheme is Scheme.KRASNOSELSKIJ and (lam is None or not 0.0 < lam < 1.0):
        raise ConfigError(f"lambda: must lie in (0, 1) for scheme krasnoselskij, got {lam}")
    if scheme is Scheme.SOLVE_MODIFIED and (b is None or not b > 0.0):
        raise ConfigError(f"b: must be > 0 for scheme solve_modified, got {b}")
    if scheme is Scheme.VERIFY and (b is None or b < 0.0):
        raise ConfigError(f"b: must be >= 0 for scheme verify, got {b}")
    if scheme in (Scheme.VERIFY, Scheme.MIN_B) and kind is None:
        raise ConfigError(f"kind: required for scheme {scheme.value}")


# --- config schema ----------------------------------------------------------


def _as_is(v, name: str):
    """A field whose shape the code that consumes it checks."""
    return v


def _mapping(v, name: str) -> Mapping:
    try:
        return parse_mapping(v)
    except (SchemaError, InvariantViolation) as e:
        raise ConfigError(f"{name}: {e}") from e


def _enum(cls, what: str):
    def parse(v, name: str):
        try:
            return cls(v)
        except ValueError:
            raise ConfigError(f"{name}: unknown {what} {v!r}") from None

    return parse


def _named(check):
    """A library check whose messages already name the field."""

    def parse(v, name: str):
        try:
            return check(v, name)
        except (SchemaError, InvariantViolation) as e:
            raise ConfigError(str(e)) from None

    return parse


_number = _named(_num)
_vector = _named(lambda v, name: as_vector(v, name=name))


def _slack(v, name: str) -> float:
    v = _number(v, name)
    if v < 0.0:
        raise ConfigError(f"{name}: must be >= 0, got {v}")
    return v


def _object(cls):
    """A nested object whose keys are the keyword arguments of ``cls``.

    Its numbers must be finite, as canonical JSON has no infinity.
    """

    def parse(v, name: str):
        try:
            obj = cls(**v)
        except (TypeError, ParameterOutOfRange) as e:
            raise ConfigError(f"{name}: {e}") from e
        for key, x in dataclasses.asdict(obj).items():
            if isinstance(x, float) and not math.isfinite(x):
                raise ConfigError(f"{name}: {key} must be finite, got {x!r}")
        return obj

    return parse


def _typed(cls, what: str):
    def parse(v, name: str):
        if not isinstance(v, cls):
            raise ConfigError(f"{name}: expected {what}")
        return v

    return parse


def _nonneg_int(v, name: str) -> int:
    """A config integer that must be >= 0 (a seed, a dimension or a count)."""
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ConfigError(f"{name}: expected a non-negative integer")
    return v


_REQUIRED = object()

# name -> (parser, default). A field without a default is required; a field
# whose default is None also accepts null.
_FIELDS = {
    "mapping": (_mapping, _REQUIRED),
    "scheme": (_enum(Scheme, "scheme"), _REQUIRED),
    "norm": (_enum(NormKind, "norm"), "l2"),
    "b": (_number, None),
    "lambda": (_number, None),
    "kind": (_enum(ConditionKind, "condition kind"), None),
    "x0": (_vector, None),
    "stop": (_object(StopRule), {}),
    "sampler": (_object(PairSampler), None),
    "slack": (_slack, DEFAULT_SLACK),
    "verify": (_typed(bool, "true or false"), False),
    "store_iterates": (_typed(bool, "true or false"), False),
    "seed": (_nonneg_int, 42),
    "output_dir": (_typed(str, "a string"), None),
    "family": (_as_is, _REQUIRED),
    "schemes": (_as_is, _REQUIRED),
    "dim": (_nonneg_int, _REQUIRED),
    "singular_values": (_as_is, _REQUIRED),
    "count": (_nonneg_int, 0),
}

# The fields each document level takes.
_EXPERIMENT = (
    "mapping", "scheme", "norm", "b", "lambda", "kind", "x0", "stop",
    "sampler", "slack", "verify", "store_iterates", "seed", "output_dir",
)
_GENERATOR = ("seed", "dim", "singular_values", "count")
_BENCH = ("family", "schemes", "stop", "norm", "seed", "x0", "output_dir")
_BENCH_SCHEME = ("scheme", "lambda", "b")

# ExperimentConfig attributes whose names differ from their fields'.
_ATTRS = {"norm": "norm_kind", "lambda": "lam"}


def _read(doc, names, prefix: str = "", **defaults) -> dict:
    """Parse the fields ``names`` of one document level through ``_FIELDS``;
    ``prefix`` names the level in messages, ``defaults`` override the table's."""
    if not isinstance(doc, dict):
        where = prefix.rstrip(".: ") or "config"
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = sorted(map(str, doc.keys() - set(names)))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown config field")
    out = {}
    for name in names:
        parse, default = _FIELDS[name]
        default = defaults.get(name, default)
        if name not in doc and default is _REQUIRED:
            raise ConfigError(f"{prefix}{name}: missing field")
        v = doc.get(name, default)
        out[name] = None if v is None and default is None else parse(v, prefix + name)
    return out


def parse_config(doc: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a JSON document."""
    fields = _read(doc, _EXPERIMENT)
    return ExperimentConfig(**{_ATTRS.get(k, k): v for k, v in fields.items()})


def _plain(v):
    """A parsed field value back as JSON."""
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, Mapping):
        return serialize_mapping(v)
    if isinstance(v, (StopRule, PairSampler)):
        return dataclasses.asdict(v)
    return v


def config_to_doc(cfg: ExperimentConfig) -> dict:
    """Canonical JSON document for a config, with every default materialized."""
    doc = {name: _plain(getattr(cfg, _ATTRS.get(name, name))) for name in _EXPERIMENT}
    doc["sampler"] = _plain(cfg.effective_sampler())
    return doc


def canonical_json(doc) -> str:
    """``doc`` as compact JSON with sorted keys. Only a config's mapping can
    nest, so a document too deep for the encoder is a ConfigError about it."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except RecursionError:
        raise ConfigError("mapping: nested too deeply for a config document") from None


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


def _dispatch(cfg: ExperimentConfig) -> tuple[str, IterationTrace | None, dict]:
    """Run a config's scheme. Returns its status (an FpkitError is
    ``error:<type>``), its trace (None unless it iterates) and the RunSummary
    fields it sets."""
    try:
        if cfg.scheme is Scheme.PICARD:
            trace = picard(cfg.mapping, cfg.x0, cfg.stop, cfg.norm_kind)
            return trace.status.value, trace, {}
        if cfg.scheme is Scheme.KRASNOSELSKIJ:
            trace = krasnoselskij(cfg.mapping, cfg.lam, cfg.x0, cfg.stop, cfg.norm_kind)
            return trace.status.value, trace, {"lam": cfg.lam}
        if cfg.scheme is Scheme.SOLVE_MODIFIED:
            result = solve_modified(
                cfg.mapping, cfg.b, cfg.x0, cfg.stop, cfg.norm_kind, cfg.verify,
                sampler=cfg.effective_sampler(), slack=cfg.slack,
            )
            return result.trace.status.value, result.trace, {
                "fixed_point": result.fixed_point.tolist(),
                "lam": result.lam,
                "residual_T": result.residual_T,
                "report": result.condition_verified,
            }
        if cfg.scheme is Scheme.VERIFY:
            report = verify_condition(
                cfg.mapping, cfg.b, cfg.kind, cfg.effective_sampler(),
                slack=cfg.slack, norm_kind=cfg.norm_kind,
            )
            return "passed" if report.passed else "refuted", None, {"report": report}
        A, _ = as_affine(cfg.mapping)
        value = min_b_affine(A, cfg.kind, cfg.norm_kind)
        return "found" if value is not None else "infeasible", None, {"min_b": value}
    except FpkitError as e:
        return f"error:{type(e).__name__}", None, {}


def _out_dir(target) -> Path:
    """The output directory ``target``, created if missing."""
    if target is None:
        raise ConfigError("output_dir: required (set it in the config or pass out_dir)")
    out = Path(target)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as e:
        raise IoError(f"cannot create output directory {out}: {e}") from e
    return out


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RunSummary:
    """Execute one configured run and persist its artifacts.

    Scheme-level failures (divergence, a refuted condition, no feasible b)
    land in the summary's status; they are results, not exceptions. Raises
    ConfigError when no output directory is given or the mapping nests too
    deeply for a config document, and IoError when artifacts cannot be
    written.
    """
    digest = config_digest(cfg)  # refuses a config before any directory exists
    out = _out_dir(out_dir if out_dir is not None else cfg.output_dir)
    t0 = time.perf_counter()
    status, trace, extras = _dispatch(cfg)
    summary = RunSummary(
        digest=digest,
        scheme=cfg.scheme,
        status=status,
        wall_time=time.perf_counter() - t0,
        artifacts={"config": "config.json", "trace": "trace.csv", "summary": "summary.json"},
        **extras,
    )
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
        (out / "summary.json").write_text(
            json.dumps(_null_non_finite(summary.to_dict()), indent=2, allow_nan=False) + "\n"
        )
    except OSError as e:
        raise IoError(f"cannot write artifacts under {out}: {e}") from e
    return summary


def _null_non_finite(v):
    """``v`` with each non-finite float as None, so strict JSON parsers read it."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _null_non_finite(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_null_non_finite(x) for x in v]
    return v


def generate_affine_family(
    seed: int, dim: int, singular_values, count: int
) -> list[Affine]:
    """Random affine maps with exactly the prescribed l2 singular values.

    Each map is U diag(s) V^T with U, V drawn as QR factors of Gaussian
    matrices (signs fixed to make the factorization unambiguous) and an
    offset uniform in [-10, 10]^dim. Deterministic per seed.
    """
    if not 1 <= dim <= DIM_CAP:
        raise ParameterOutOfRange(f"dim: must be in [1, {DIM_CAP}]")
    if count < 0:
        raise ParameterOutOfRange("count: must be >= 0")
    try:
        s = np.asarray(singular_values, dtype=float)
    except (TypeError, ValueError):
        raise ParameterOutOfRange("singular_values: must be a list of numbers") from None
    if s.ndim != 1 or s.size != dim:
        raise ParameterOutOfRange(f"singular_values: must be a list of length dim={dim}")
    if not np.all(np.isfinite(s)) or np.any(s < 0):
        raise ParameterOutOfRange("singular_values: must be finite and >= 0")

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


def _generate(fields: dict, prefix: str = "") -> list[Affine]:
    """The family of a parsed generator object (a gen document or a bench
    family); ``prefix`` names the object in messages, as in ``_read``."""
    try:
        return generate_affine_family(
            fields["seed"], fields["dim"], fields["singular_values"], fields["count"]
        )
    except ParameterOutOfRange as e:
        raise ConfigError(f"{prefix}{e}") from e


def bench_compare(
    family: list[Mapping],
    schemes: list[dict],
    stop: StopRule | None = None,
    norm_kind: NormKind = NormKind.L2,
    x0=None,
) -> list[dict]:
    """Run every scheme on every mapping; one row per (mapping, scheme) cell.

    ``schemes`` holds ``{"scheme", "lambda" | "b"}`` entries of iterative
    schemes, as in a bench config. Each cell is an ExperimentConfig (x0
    defaults to the origin), and all are built, hence checked, before any runs.

    Rows carry status, iteration count and the empirical residual ratio
    (blank when the trace is too short to estimate one). A failure in one
    cell is recorded in that row's status and the sweep continues.
    """
    if not isinstance(schemes, list) or not schemes:
        raise ConfigError("schemes: expected a non-empty list")
    entries = [_read(s, _BENCH_SCHEME, f"schemes[{j}]: ") for j, s in enumerate(schemes)]
    for j, entry in enumerate(entries):  # checked here too, so an empty family checks them
        try:
            if entry["scheme"] not in _ITERATIVE:
                raise ConfigError(f"scheme: {entry['scheme'].value} cannot be benchmarked")
            _check_parameters(entry["scheme"], entry["b"], entry["lambda"], None)
        except ConfigError as e:
            raise ConfigError(f"schemes[{j}]: {e}") from e
    stop = stop if stop is not None else StopRule()
    start = None if x0 is None else _vector(x0, "x0")
    cells = []
    for i, mapping in enumerate(family):
        for j, entry in enumerate(entries):
            try:
                cfg = ExperimentConfig(
                    mapping, entry["scheme"], norm_kind, b=entry["b"], lam=entry["lambda"],
                    x0=np.zeros(mapping.dim) if start is None else start, stop=stop,
                )
            except ConfigError as e:
                raise ConfigError(f"family[{i}], schemes[{j}]: {e}") from e
            param = {Scheme.KRASNOSELSKIJ: "lambda", Scheme.SOLVE_MODIFIED: "b"}.get(cfg.scheme)
            label = f"{cfg.scheme.value}[{param}={schemes[j][param]!r}]" if param else "picard"
            cells.append((i, label, cfg))

    rows = []
    for i, label, cfg in cells:
        status, trace, _ = _dispatch(cfg)
        row = {"mapping": i, "scheme": label, "status": status, "iterations": "", "empirical_ratio": ""}
        if trace is not None:
            row["iterations"] = trace.iterations
            try:
                row["empirical_ratio"] = empirical_ratio(trace)
            except InsufficientData:
                pass
        rows.append(row)
    return rows


def write_bench_csv(rows: list[dict], path) -> None:
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


def run_bench(doc: dict, out_dir=None) -> tuple[list[dict], Path]:
    """Run a bench document through ``bench_compare``; write bench.csv and
    return its rows and path. A generator family's seed defaults to the document's."""
    fields = _read(doc, _BENCH)
    family = fields["family"]
    if isinstance(family, dict):
        family = _generate(_read(family, _GENERATOR, "family.", seed=fields["seed"]), "family.")
    elif isinstance(family, list):
        family = [_mapping(m, "family") for m in family]
    else:
        raise ConfigError("family: expected a list of mappings or a generator object")
    out = _out_dir(out_dir if out_dir is not None else fields["output_dir"])
    rows = bench_compare(family, fields["schemes"], fields["stop"], fields["norm"], fields["x0"])
    write_bench_csv(rows, out / "bench.csv")
    return rows, out / "bench.csv"


def _family_json(family: list[Affine]) -> str:
    """``json.dumps([serialize_mapping(m) for m in family], indent=2)``, emitted
    directly: the same ``float.__repr__`` tokens, indentation and separators,
    without the pure-Python indenting encoder."""
    if not family:
        return "[]"

    def items(values, indent):
        return f",\n{indent}".join(map(float.__repr__, values))

    maps = []
    for m in family:
        rows = ",\n".join(
            f"      [\n        {items(row, ' ' * 8)}\n      ]" for row in m.matrix.tolist()
        )
        maps.append(
            '  {\n    "kind": "affine",\n    "matrix": [\n'
            f"{rows}\n    ],\n"
            f'    "offset": [\n      {items(m.offset.tolist(), " " * 6)}\n    ]\n  }}'
        )
    return "[\n" + ",\n".join(maps) + "\n]"


def run_gen(doc: dict, out_dir=None) -> tuple[list[Affine], Path]:
    """Generate the family a gen document describes; write and return it and family.json's path."""
    fields = _read(doc, _GENERATOR + ("output_dir",))
    out = _out_dir(out_dir if out_dir is not None else fields["output_dir"])
    family = _generate(fields)
    path = out / "family.json"
    try:
        path.write_text(_family_json(family) + "\n")
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e
    return family, path
