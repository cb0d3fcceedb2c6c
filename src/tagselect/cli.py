"""Command-line front end: solve one instance, run benchmark sweeps,
generate synthetic data, and export the 0/1 models as LP files."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import rules_io
from .errors import TagSelectError
from .model import make_params
from .solvers import DEFAULT_EXACT_CAP, SOLVERS, Algorithm

_ALGO_CHOICES = [a.value for a in Algorithm]


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def cmd_solve(args) -> int:
    if args.exact_cap < 0:
        raise ValueError(f"exact cap must be >= 0, got {args.exact_cap}")
    doc = rules_io.load(args.rules)
    instance = doc.build()
    params = make_params(args.k, args.alpha, args.beta, instance)
    report = SOLVERS[Algorithm(args.algorithm)](instance, params, exact_cap=args.exact_cap)
    for tag_id in report.sorted_ids():
        print(instance.tags[tag_id].annotated())
    print(f"{report.objective_kind} = {report.objective_value}")
    if report.covdc_value is not None:
        print(f"cov_dc = {report.covdc_value}")
    print(f"rel = {report.rel_total:.6g}")
    print(f"time = {report.wall_time:.6g} s")
    if not report.feasible:
        print("dead end: relevance filter emptied the candidate pool", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    if args.rules:
        instances = (rules_io.load(args.rules).build(),)
    else:
        instances = bench_mod.RandomInstanceSpec(
            count=args.instances,
            num_attrs=args.attrs,
            n_pos=args.pos,
            n_neg=args.neg,
        )
    spec = bench_mod.SweepSpec(
        algorithms=tuple(Algorithm(a) for a in args.algorithms.split(",")),
        k_values=args.k_values,
        alpha_values=args.alpha_values,
        beta_values=args.beta_values,
        instances=instances,
        repetitions=args.repetitions,
        seed=args.seed,
        exact_cap=bench_mod.SweepSpec.exact_cap if args.exact_cap is None else args.exact_cap,
    )
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    rows = bench_mod.run_sweep(spec, jobs=args.jobs)
    bench_mod.write_csv(rows, spec, args.out)
    for line in bench_mod.summarize(rows):
        print(line)
    print(f"wrote {len(rows)} rows to {args.out}")
    if args.assert_bounds:
        try:
            bench_mod.assert_bounds(rows)
        except AssertionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


def cmd_gen(args) -> int:
    from . import datagen

    if args.csv_rows < 0:
        raise ValueError(f"csv rows must be >= 0, got {args.csv_rows}")
    config = datagen.SynthConfig(
        num_items=args.items,
        num_attrs=args.attrs,
        num_pos_tags=args.pos_tags,
        num_neg_tags=args.neg_tags,
        group_probs=args.probs,
        seed=args.seed,
        corr_min=args.corr_min,
        corr_max=args.corr_max,
    )
    print(f"seed = {config.seed}")
    matrix = datagen.gen_matrix(config)
    rules = datagen.extract_rules(matrix)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    matrix_path = out.with_suffix(".matrix")
    rules_path = out.with_suffix(".rules.jsonl")
    datagen.save_matrix(matrix, matrix_path)
    doc = rules_io.RulesDocument(
        item_id="synthetic",
        attributes=datagen.attribute_names(config),
        rules=tuple(rules),
    )
    rules_io.dump(doc, rules_path)
    print(f"wrote {matrix_path} ({matrix.data.shape[0]} x {matrix.data.shape[1]})")
    print(f"wrote {rules_path} ({len(rules)} rules)")
    if args.csv:
        csv_path = out.with_suffix(".csv")
        datagen.export_matrix_csv(matrix, csv_path, max_rows=args.csv_rows)
        print(f"wrote {csv_path}")
    return 0


def cmd_export_lp(args) -> int:
    from . import lp_export

    instance = rules_io.load(args.rules).build()
    params = make_params(args.k, args.alpha, args.beta, instance)
    lp_export.write_lp(instance, params, args.model, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagselect",
        description="Select top-k sentiment-balanced tags for reviewing an item.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance from a rules file")
    p.add_argument("--rules", required=True, help="rules file (line-oriented JSON)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--algorithm", choices=_ALGO_CHOICES, default="a-ic")
    p.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CAP)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a sweep and write a CSV")
    p.add_argument("--rules", help="use one instance from this rules file")
    p.add_argument("--instances", type=int, default=50,
                   help="number of random instances (when --rules absent)")
    p.add_argument("--attrs", type=int, default=24)
    p.add_argument("--pos", type=int, default=8)
    p.add_argument("--neg", type=int, default=8)
    p.add_argument("--algorithms", default="a-ic,e-ic,a-dc,e-dc")
    p.add_argument("--k-values", type=_parse_ints, default=(2, 4, 6))
    p.add_argument("--alpha-values", type=_parse_floats, default=(0.5,))
    p.add_argument("--beta-values", type=_parse_floats, default=(0.5,))
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    # Default None stands for SweepSpec.exact_cap, read in cmd_bench so that
    # building the parser does not import bench.
    p.add_argument("--exact-cap", type=int)
    p.add_argument("--assert-bounds", action="store_true",
                   help="fail if any approximation ratio exceeds 2")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic matrix and rules file")
    p.add_argument("--items", type=int, default=100_000)
    p.add_argument("--attrs", type=int, default=100)
    p.add_argument("--pos-tags", type=int, default=50)
    p.add_argument("--neg-tags", type=int, default=50)
    p.add_argument("--probs", type=_parse_floats, default=(0.75, 0.15, 0.10, 0.05))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corr-min", type=int, default=3)
    p.add_argument("--corr-max", type=int, default=8)
    p.add_argument("--csv", action="store_true", help="also export a CSV view")
    p.add_argument("--csv-rows", type=int, default=1000)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-lp", help="write a 0/1 model as an LP file")
    p.add_argument("--rules", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--model", choices=["ic", "dc"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_lp)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code: 0 on success, 1 on a
    tagselect error, a greedy dead end or a ratio over 2 under ``bench
    --assert-bounds``, 2 on an invalid argument value, a file that cannot
    be read, or a size too large to allocate (such as ``gen --items
    1000000000000``).  Errors print one ``error:`` line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TagSelectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
