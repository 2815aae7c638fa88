"""Command-line front end.

Subcommands: verify, solve, iterate, min-b, bench, gen. Every subcommand
reads a JSON config (--config) and writes artifacts under --out (or the
config's output_dir). Flags override the corresponding config fields.

Exit codes: 0 success, 1 scheme-level failure (diverged, refuted, no feasible
b), 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .enrichment import ConditionKind
from .errors import ConfigError, InvariantViolation, IoError, ParameterOutOfRange, SchemaError
from .harness import (
    BenchScheme,
    Scheme,
    _nonneg_int,
    _norm_field,
    _output_dir,
    bench_compare,
    generate_affine_family,
    parse_config,
    run_experiment,
    write_bench_csv,
)
from .iteration import StopRule
from .mappings import parse_mapping, serialize_mapping
from .spaces import NormKind

EXIT_OK = 0
EXIT_SCHEME_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_FAILURE_STATUSES = {"diverged", "max_iter_reached", "refuted", "infeasible"}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON config file")
    p.add_argument("--out", help="output directory (overrides config output_dir)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--norm", choices=[k.value for k in NormKind], help="override the norm")
    p.add_argument("--tol", type=float, help="override stop rule eps_abs")
    p.add_argument("--max-iter", type=int, help="override stop rule max_iter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpkit",
        description="Fixed points of enriched nonexpansive mappings via averaged iteration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="sampled check of the enrichment condition")
    _add_common(p)
    p.add_argument("--kind", choices=[k.value for k in ConditionKind], help="condition kind")
    p.add_argument("--b", type=float, help="enrichment constant to test")

    p = sub.add_parser("solve", help="solve a modified-enriched map with lambda = 1/(b+1)")
    _add_common(p)
    p.add_argument("--b", type=float, help="modified-enrichment constant (> 0)")
    p.add_argument("--x0", help="comma-separated starting vector, e.g. 0.0 or 1.0,2.0")
    p.add_argument("--verify", action="store_true", help="run the condition check first")

    p = sub.add_parser("iterate", help="run picard or krasnoselskij iteration from a config")
    _add_common(p)

    p = sub.add_parser("min-b", help="least feasible enrichment constant of an affine mapping")
    _add_common(p)
    p.add_argument("--kind", choices=[k.value for k in ConditionKind], help="condition kind")

    p = sub.add_parser("bench", help="compare schemes across a mapping family")
    _add_common(p)

    p = sub.add_parser("gen", help="generate an affine family with prescribed singular values")
    _add_common(p)

    return parser


def _load_json(path: str):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise IoError(f"cannot read config file {path}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: {path} is not valid JSON ({e})") from e


def _apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"config: expected an object, got {type(doc).__name__}")
    doc = dict(doc)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.norm is not None:
        doc["norm"] = args.norm
    if args.tol is not None or args.max_iter is not None:
        stop = dict(doc.get("stop", {}))
        if args.tol is not None:
            stop["eps_abs"] = args.tol
        if args.max_iter is not None:
            stop["max_iter"] = args.max_iter
        doc["stop"] = stop
    if getattr(args, "b", None) is not None:
        doc["b"] = args.b
    if getattr(args, "kind", None) is not None:
        doc["kind"] = args.kind
    if getattr(args, "x0", None) is not None:
        try:
            doc["x0"] = [float(tok) for tok in args.x0.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"x0: cannot parse {args.x0!r} as a comma-separated vector") from None
    if getattr(args, "verify", False):
        doc["verify"] = True
    return doc


_COMMAND_SCHEME = {
    "verify": Scheme.VERIFY,
    "solve": Scheme.SOLVE_MODIFIED,
    "min-b": Scheme.MIN_B,
}


def _run_scheme_command(args: argparse.Namespace) -> int:
    doc = _apply_overrides(_load_json(args.config), args)
    if args.command in _COMMAND_SCHEME:
        doc["scheme"] = _COMMAND_SCHEME[args.command].value
    else:  # iterate
        scheme = doc.get("scheme", Scheme.PICARD.value)
        if scheme not in (Scheme.PICARD.value, Scheme.KRASNOSELSKIJ.value):
            raise ConfigError(f"scheme: iterate expects picard or krasnoselskij, got {scheme!r}")
        doc["scheme"] = scheme
    cfg = parse_config(doc)
    summary = run_experiment(cfg, out_dir=args.out)
    print(f"[{summary.scheme.value}] status={summary.status} digest={summary.digest[:12]}")
    if summary.fixed_point is not None:
        print(f"  fixed_point={summary.fixed_point} iterations={summary.iterations}")
    if summary.report is not None:
        print(f"  max_ratio={summary.report.max_ratio!r} passed={summary.report.passed}")
    if summary.scheme is Scheme.MIN_B:
        print(f"  min_b={summary.min_b!r}")
    if summary.status in _FAILURE_STATUSES or summary.status.startswith("error:"):
        return EXIT_SCHEME_FAILURE
    return EXIT_OK


def _out_dir(args: argparse.Namespace, doc: dict) -> Path:
    target = args.out or _output_dir(doc)
    if target is None:
        raise ConfigError("output_dir: required (set it in the config or pass --out)")
    out = Path(target)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create output directory {out}: {e}") from e
    return out


def _parse_family(doc: dict, seed: int) -> list:
    fam = doc.get("family")
    if isinstance(fam, list):
        try:
            return [parse_mapping(m) for m in fam]
        except (SchemaError, InvariantViolation) as e:
            raise ConfigError(f"family: {e}") from e
    if isinstance(fam, dict):
        return _generate_family(fam, seed, "family.")
    raise ConfigError("family: expected a list of mappings or a generator object")


def _generate_family(spec: dict, seed: int, prefix: str) -> list:
    """The affine family described by a {seed, dim, singular_values, count} object."""
    try:
        return generate_affine_family(
            seed=_nonneg_int(spec.get("seed", seed), f"{prefix}seed"),
            dim=_nonneg_int(spec.get("dim", 0), f"{prefix}dim"),
            singular_values=spec.get("singular_values", []),
            count=_nonneg_int(spec.get("count", 0), f"{prefix}count"),
        )
    except ParameterOutOfRange as e:
        raise ConfigError(str(e)) from e


def _run_bench(args: argparse.Namespace) -> int:
    doc = _apply_overrides(_load_json(args.config), args)
    out = _out_dir(args, doc)
    seed = _nonneg_int(doc.get("seed", 42), "seed")
    family = _parse_family(doc, seed)
    raw_schemes = doc.get("schemes")
    if not isinstance(raw_schemes, list) or not raw_schemes:
        raise ConfigError("schemes: expected a non-empty list")
    schemes = []
    for i, s in enumerate(raw_schemes):
        if not isinstance(s, dict) or "scheme" not in s:
            raise ConfigError(f"schemes[{i}]: expected an object with a 'scheme' field")
        try:
            schemes.append(BenchScheme(s["scheme"], lam=s.get("lambda"), b=s.get("b")))
        except (ConfigError, TypeError, ValueError) as e:
            raise ConfigError(f"schemes[{i}]: {e}") from e
    try:
        stop = StopRule(**doc.get("stop", {}))
    except (TypeError, ParameterOutOfRange) as e:
        raise ConfigError(f"stop: {e}") from e
    norm_kind = _norm_field(doc.get("norm", "l2"))
    rows = bench_compare(family, schemes, stop, norm_kind, x0=doc.get("x0"))
    write_bench_csv(rows, out / "bench.csv")
    n_fail = sum(1 for r in rows if r["status"] != "converged")
    print(f"[bench] {len(rows)} cells -> {out / 'bench.csv'} ({n_fail} not converged)")
    return EXIT_OK


def _run_gen(args: argparse.Namespace) -> int:
    doc = _apply_overrides(_load_json(args.config), args)
    out = _out_dir(args, doc)
    family = _generate_family(doc, 42, "")
    payload = [serialize_mapping(m) for m in family]
    path = out / "family.json"
    try:
        path.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e
    print(f"[gen] wrote {len(family)} mappings -> {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "gen":
            return _run_gen(args)
        return _run_scheme_command(args)
    except (ConfigError, SchemaError, InvariantViolation, ParameterOutOfRange) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IoError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
