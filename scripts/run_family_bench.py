"""Benchmark iteration schemes over a seeded family of random affine maps.

Generates `--count` maps with singular values spread over [0.2, top], runs
plain Picard next to the averaged scheme and the modified solver, and writes
the per-cell outcome table to --out/bench.csv.
"""

import argparse
from pathlib import Path

import fpkit as fp


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/bench"))
    ap.add_argument("--seed", type=int, default=2000)
    ap.add_argument("--count", type=int, default=12)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--top", type=float, default=1.8, help="largest singular value")
    args = ap.parse_args()

    svals = [args.top] + [max(0.5 * args.top, 0.05)] * (args.dim - 1)
    family = fp.generate_affine_family(args.seed, args.dim, svals, args.count)
    schemes = [
        {"scheme": "picard"},
        {"scheme": "krasnoselskij", "lambda": 0.25},
        {"scheme": "solve_modified", "b": 3.0},
    ]
    rows = fp.bench_compare(family, schemes, stop=fp.StopRule(eps_abs=1e-9))

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "bench.csv"
    fp.write_bench_csv(rows, path)

    converged = sum(1 for r in rows if r["status"] == "converged")
    print(f"{len(rows)} cells, {converged} converged, table in {path}")


if __name__ == "__main__":
    main()
