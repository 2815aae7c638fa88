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
    _as_b,
    _as_slack,
    min_b_affine,
    verify_condition,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
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
    _as_lam,
    _as_solve_b,
    _modified_lam,
    _trace_csv,
    _write_artifact,
    empirical_ratio,
    krasnoselskij,
    picard,
    solve_modified,
)
from .mappings import Affine, Mapping, _as_point, _num, as_affine, parse_mapping, serialize_mapping
from .spaces import DIM_CAP, NormKind, _float_array, as_vector, is_integer, is_number


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
            try:
                _as_point(self.mapping, self.x0, "x0")
            except (DimensionMismatch, InvariantViolation) as e:
                raise ConfigError(str(e)) from None
        if self.scheme is Scheme.MIN_B:
            form = as_affine(self.mapping)
            if form is None:
                raise ConfigError("mapping: scheme min_b needs an affine-representable mapping")
            if not (np.isfinite(form[0]).all() and np.isfinite(form[1]).all()):
                raise ConfigError("mapping: its affine form overflows to non-finite entries")

    def effective_sampler(self) -> PairSampler:
        return self.sampler if self.sampler is not None else PairSampler(seed=self.seed)


# The parameter each scheme requires, with the library check of its range.
_PARAMETER = {
    Scheme.KRASNOSELSKIJ: ("lambda", _as_lam),
    Scheme.SOLVE_MODIFIED: ("b", _as_solve_b),
    Scheme.VERIFY: ("b", _as_b),
}


def _check_parameters(scheme: Scheme, b, lam, kind) -> None:
    """Which parameters a scheme requires, none of which needs the mapping;
    each range is the library's own check."""
    if scheme in _PARAMETER:
        name, check = _PARAMETER[scheme]
        value = lam if name == "lambda" else b
        if value is None:
            raise ConfigError(f"{name}: required for scheme {scheme.value}")
        try:
            check(value)
        except ParameterOutOfRange as e:
            raise ConfigError(f"{name}: {e}") from None
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
        except (SchemaError, InvariantViolation, ParameterOutOfRange) as e:
            raise ConfigError(str(e)) from None

    return parse


_number = _named(_num)
_vector = _named(lambda v, name: as_vector(v, name=name))
_slack = _named(lambda v, name: _as_slack(_num(v, name)))  # verify_condition's own check


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


def _numbers(v, name: str) -> list:
    """A config list of numbers; JSON booleans and strings are not numbers."""
    if not (isinstance(v, list) and all(map(is_number, v))):
        raise ConfigError(f"{name}: must be a list of numbers")
    return v


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
    "singular_values": (_numbers, _REQUIRED),
    "count": (_nonneg_int, 0),
}

# The fields each document level takes; an experiment's are those of
# ExperimentConfig (_CONFIG_FIELDS, below).
_GENERATOR = ("seed", "dim", "singular_values", "count")
_BENCH = ("family", "schemes", "stop", "norm", "seed", "x0", "output_dir")
_BENCH_SCHEME = ("scheme", "lambda", "b")

# The attributes whose names differ from their JSON fields'.
_JSON_NAMES = {"norm_kind": "norm", "lam": "lambda"}


def _json_fields(cls) -> dict[str, str]:
    """attribute -> JSON field, for each field of the dataclass ``cls`` in order."""
    return {f.name: _JSON_NAMES.get(f.name, f.name) for f in dataclasses.fields(cls)}


_CONFIG_FIELDS = _json_fields(ExperimentConfig)


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
    """Build and validate an ExperimentConfig from a JSON document. A sampler
    object that names no seed draws with the document's."""
    fields = _read(doc, _CONFIG_FIELDS.values())
    if isinstance(doc.get("sampler"), dict) and "seed" not in doc["sampler"]:
        fields["sampler"] = dataclasses.replace(fields["sampler"], seed=fields["seed"])
    return ExperimentConfig(**{attr: fields[name] for attr, name in _CONFIG_FIELDS.items()})


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
    if isinstance(v, EnrichmentReport):
        return v.to_dict()
    return v


def config_to_doc(cfg: ExperimentConfig) -> dict:
    """Canonical JSON document for a config, with every default materialized."""
    doc = {name: _plain(getattr(cfg, attr)) for attr, name in _CONFIG_FIELDS.items()}
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
    return _digest(config_to_doc(cfg))


def _digest(doc: dict) -> str:
    """Hex digest of a config document, less its output_dir."""
    rest = {name: v for name, v in doc.items() if name != "output_dir"}
    return hashlib.sha256(canonical_json(rest).encode()).hexdigest()


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
        return {name: _plain(getattr(self, attr)) for attr, name in _SUMMARY_FIELDS.items()}


_SUMMARY_FIELDS = _json_fields(RunSummary)


def _dispatch(cfg: ExperimentConfig) -> tuple[str, IterationTrace | None, dict]:
    """Run a config's scheme. Returns its status (an FpkitError is
    ``error:<type>``), its trace (None unless it iterates) and the RunSummary
    fields it sets.

    The condition check runs here alone: for a ``verify`` config, and after
    the iteration of a ``solve_modified`` config with ``verify`` set, where
    it checks the modified condition at the solve's b. The solve's status
    is its trace's; a refuted check does not change it.
    """
    try:
        if cfg.scheme is Scheme.PICARD:
            trace = picard(cfg.mapping, cfg.x0, cfg.stop, cfg.norm_kind)
            return trace.status.value, trace, {}
        if cfg.scheme is Scheme.KRASNOSELSKIJ:
            trace = krasnoselskij(cfg.mapping, cfg.lam, cfg.x0, cfg.stop, cfg.norm_kind)
            return trace.status.value, trace, {"lam": cfg.lam}
        if cfg.scheme is Scheme.MIN_B:
            value = min_b_affine(as_affine(cfg.mapping)[0], cfg.kind, cfg.norm_kind)
            return "found" if value is not None else "infeasible", None, {"min_b": value}
        trace, fields = None, {}
        if cfg.scheme is Scheme.SOLVE_MODIFIED:
            result = solve_modified(cfg.mapping, cfg.b, cfg.x0, cfg.stop, cfg.norm_kind)
            trace, fields = result.trace, {"lam": result.lam, "residual_T": result.residual_T}
        if trace is None or cfg.verify:
            fields["report"] = verify_condition(
                cfg.mapping, cfg.b, cfg.kind if trace is None else ConditionKind.MODIFIED,
                cfg.effective_sampler(), slack=cfg.slack, norm_kind=cfg.norm_kind,
            )
        if trace is None:
            return "passed" if fields["report"].passed else "refuted", None, fields
        return trace.status.value, trace, fields
    except FpkitError as e:
        return f"error:{type(e).__name__}", None, {}


def _out_dir(target) -> Path:
    """The output directory ``target``; ConfigError when none is given."""
    if target is None:
        raise ConfigError("output_dir: required (set it in the config or pass out_dir)")
    return Path(target)


def _made(out: Path) -> Path:
    """``out``, created if missing. Each run calls this only once its
    document has been checked, so a refused document leaves no directory."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as e:
        raise IoError(f"cannot create output directory {out}: {e}") from e
    return out


# The files of a run directory, keyed as in RunSummary.artifacts.
_RUN_FILES = {"config": "config.json", "trace": "trace.csv", "summary": "summary.json"}


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RunSummary:
    """Execute one configured run and persist its artifacts.

    Scheme-level failures (divergence, a refuted condition, no feasible b)
    land in the summary's status; they are results, not exceptions. Raises
    ConfigError when no output directory is given or the mapping nests too
    deeply for a config document, and IoError naming the artifact and its
    path when one cannot be written.
    """
    doc = config_to_doc(cfg)
    digest = _digest(doc)  # refuses a config before any directory exists
    out = _made(_out_dir(out_dir if out_dir is not None else cfg.output_dir))
    t0 = time.perf_counter()
    status, trace, extras = _dispatch(cfg)
    summary = RunSummary(
        digest=digest,
        scheme=cfg.scheme,
        status=status,
        wall_time=time.perf_counter() - t0,
        artifacts=dict(_RUN_FILES),
        **extras,
    )
    if trace is not None:
        summary.iterations = trace.iterations
        summary.fixed_point = trace.final.tolist()

    summary_doc = _null_non_finite(summary.to_dict())
    for key, what, text in (
        ("config", "config JSON", canonical_json(doc) + "\n"),
        ("trace", "trace CSV", _trace_csv(trace)),
        ("summary", "summary JSON", json.dumps(summary_doc, indent=2, allow_nan=False) + "\n"),
    ):
        _write_artifact(out / _RUN_FILES[key], text, what)
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


# The most maps one family holds. At DIM_CAP each map's matrix is
# 64 * 64 * 8 bytes, so a family at this cap holds about 33 MB of matrices,
# and ``gen`` writes each map as about 125 KB of JSON text.
FAMILY_COUNT_CAP = 1000


def generate_affine_family(
    seed: int, dim: int, singular_values, count: int
) -> list[Affine]:
    """Random affine maps with exactly the prescribed l2 singular values.

    Each map is U diag(s) V^T with U, V drawn as QR factors of Gaussian
    matrices (signs fixed to make the factorization unambiguous) and an
    offset uniform in [-10, 10]^dim. Deterministic per seed. ``seed``,
    ``dim`` and ``count`` must be integers (bools are not), and ``count`` at
    most FAMILY_COUNT_CAP; ``singular_values`` converts as every array does
    (``spaces._float_array``), so strings, bytes and complex entries are
    refused. Every argument is checked before the first draw.
    """
    for name, v in (("seed", seed), ("dim", dim), ("count", count)):
        if not is_integer(v):
            raise ParameterOutOfRange(f"{name}: must be an integer, got {v!r}")
    if seed < 0:
        raise ParameterOutOfRange("seed: must be >= 0")
    if not 1 <= dim <= DIM_CAP:
        raise ParameterOutOfRange(f"dim: must be in [1, {DIM_CAP}]")
    if not 0 <= count <= FAMILY_COUNT_CAP:
        raise ParameterOutOfRange(f"count: must be in [0, {FAMILY_COUNT_CAP}]")
    try:
        s = _float_array(singular_values, "singular_values")
    except InvariantViolation as e:  # not numbers, or an integer past the float range
        reason = "finite and >= 0" if str(e).endswith("finite") else "a list of numbers"
        raise ParameterOutOfRange(f"singular_values: must be {reason}") from None
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

    Cells on one mapping that iterate the same averaged map share one run.
    This is the paper's identity: ``solve_modified`` with b is Krasnoselskij
    iteration with lambda = 1/(b+1), so a krasnoselskij cell with that lambda
    and a solve_modified cell with that b have the same trace and the same
    row fields. ``_iterated_lam`` takes a solve_modified cell's lambda from
    ``iteration._modified_lam``, the helper ``solve_modified`` runs with, so
    the rows are those of running every cell on its own.
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
            label = f"{cfg.scheme.value}[{param}={schemes[j][param]}]" if param else "picard"
            cells.append((i, label, cfg))

    runs = {}  # (mapping, lambda of the iterated map) -> its row's result fields
    rows = []
    for i, label, cfg in cells:
        key = (i, _iterated_lam(cfg))
        if key not in runs:
            status, trace, _ = _dispatch(cfg)
            run = runs[key] = {"status": status, "iterations": "", "empirical_ratio": ""}
            if trace is not None:
                run["iterations"] = trace.iterations
                try:
                    run["empirical_ratio"] = empirical_ratio(trace)
                except InsufficientData:
                    pass
        rows.append({"mapping": i, "scheme": label, **runs[key]})
    return rows


def _iterated_lam(cfg: ExperimentConfig) -> float | None:
    """The lambda of the averaged map that a bench cell iterates: the
    krasnoselskij lambda, solve_modified's 1/(b+1), or None for picard, which
    iterates the map itself."""
    if cfg.scheme is Scheme.KRASNOSELSKIJ:
        return _as_lam(cfg.lam)
    if cfg.scheme is Scheme.SOLVE_MODIFIED:
        return _modified_lam(cfg.b)
    return None


# bench.csv's columns, the keys of a bench_compare row.
_BENCH_COLUMNS = ("mapping", "scheme", "status", "iterations", "empirical_ratio")


def write_bench_csv(rows: list[dict], path) -> None:
    """Write ``bench_compare`` rows to ``path`` as CSV: the header
    ``mapping,scheme,status,iterations,empirical_ratio``, then one line per row.

    Each cell is its value's ``str``, which for a float is its repr, and a
    blank cell stays empty. No cell needs CSV quoting: mappings and
    iteration counts are integers, ratios floats, scheme labels are built
    from parsed numbers, and statuses are ``Status`` values or exception class
    names. So the file is built as one string, the bytes ``csv.DictWriter``
    would write, and written once. Raises IoError ("cannot write benchmark
    CSV <path>: ...") when the file cannot be written.
    """
    lines = [_BENCH_COLUMNS] + [[str(row[name]) for name in _BENCH_COLUMNS] for row in rows]
    _write_artifact(path, "".join(",".join(line) + "\n" for line in lines), "benchmark CSV")


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
    path = _made(out) / "bench.csv"
    write_bench_csv(rows, path)
    return rows, path


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
    path = _made(out) / "family.json"
    _write_artifact(path, _family_json(family) + "\n", "family JSON")
    return family, path
