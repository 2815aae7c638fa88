"""Command-line front end.

Subcommands: verify, solve, iterate, min-b, bench, gen. Every subcommand
reads a JSON config (--config) and writes artifacts under --out (or the
config's output_dir). Flags override the corresponding config fields.

Exit codes: 0 success, 1 scheme-level failure (diverged, refuted, no feasible
b), 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .enrichment import ConditionKind
from .errors import ConfigError, InvariantViolation, IoError, ParameterOutOfRange, SchemaError
from .harness import Scheme, parse_config, run_bench, run_experiment, run_gen
from .spaces import NormKind

EXIT_OK = 0
EXIT_SCHEME_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_FAILURE_STATUSES = {"diverged", "max_iter_reached", "refuted", "infeasible"}


def _add_common(p: argparse.ArgumentParser, *, gen: bool = False) -> None:
    p.add_argument("--config", required=True, help="path to a JSON config file")
    p.add_argument("--out", help="output directory (overrides config output_dir)")
    p.add_argument("--seed", type=int, help="override the config seed")
    if gen:  # a gen document has no norm and no stop rule
        return
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
    _add_common(p, gen=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves a parser unchanged, so every
    ``main`` call in a process reuses this one instead of building its own."""
    return build_parser()


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
    except RecursionError:
        raise ConfigError(f"config: {path} is nested too deeply to parse") from None


def _apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"config: expected an object, got {type(doc).__name__}")
    doc = dict(doc)
    for name in ("seed", "norm", "b", "kind"):
        if getattr(args, name, None) is not None:
            doc[name] = getattr(args, name)
    stop = {}
    if getattr(args, "tol", None) is not None:
        stop["eps_abs"] = args.tol
    if getattr(args, "max_iter", None) is not None:
        stop["max_iter"] = args.max_iter
    if stop and isinstance(doc.get("stop", {}), dict):  # a malformed stop fails to parse
        doc["stop"] = {**doc.get("stop", {}), **stop}
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


def _run_scheme_command(args: argparse.Namespace, doc: dict) -> int:
    if args.command in _COMMAND_SCHEME:
        doc["scheme"] = _COMMAND_SCHEME[args.command].value
    else:  # iterate
        doc.setdefault("scheme", Scheme.PICARD.value)
    cfg = parse_config(doc)
    if args.command == "iterate" and cfg.scheme not in (Scheme.PICARD, Scheme.KRASNOSELSKIJ):
        raise ConfigError(f"scheme: iterate expects picard or krasnoselskij, got {cfg.scheme.value!r}")
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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = _apply_overrides(_load_json(args.config), args)
        if args.command == "bench":
            rows, path = run_bench(doc, args.out)
            n_fail = sum(1 for r in rows if r["status"] != "converged")
            print(f"[bench] {len(rows)} cells -> {path} ({n_fail} not converged)")
            return EXIT_OK
        if args.command == "gen":
            family, path = run_gen(doc, args.out)
            print(f"[gen] wrote {len(family)} mappings -> {path}")
            return EXIT_OK
        return _run_scheme_command(args, doc)
    except (ConfigError, SchemaError, InvariantViolation, ParameterOutOfRange) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IoError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
