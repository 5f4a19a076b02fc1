"""Command-line front end.

Subcommands: ``eval`` (expression evaluation over loaded tables),
``check-axioms`` / ``check-props`` (bounded verification runs),
``check-labeling`` (labeling laws plus extent-embedding checks),
``decompose`` (transformation factorization) and ``embed`` (the
representation pipeline).

Exit codes: 0 all checks pass, 1 check failure, 2 usage or IO error,
3 no failures but some check was vacuous.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import exprlang
from .labeling import EMBEDDING_IDS, LEVELS, check_law, singleton_labeling
from .mutants import MUTANTS, make_mutant
from .orbital import (
    AXIOM_IDS,
    DERIVED_IDS,
    SampleConfig,
    check_axiom,
    check_derived,
)
from .representation import RepCaps, represent
from .tables import TableAlgebra
from .tableio import json_text, load_table, table_to_csv, table_to_grid, table_to_json
from .transforms import decompose as decompose_transform
from .transforms import compose, format_transform, is_folding, is_injective
from .transforms import is_partial_identity, parse_transform


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    p = argparse.ArgumentParser(prog="orbsemi")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a relational expression")
    pe.add_argument("expression")
    pe.add_argument("--tables", nargs="*", default=[],
                    help="table files (CSV or JSON); the stem becomes the name")
    pe.add_argument("--ground", help="comma-separated ground atoms")
    pe.add_argument("--format", choices=["grid", "csv", "json"], default="grid")
    pe.set_defaults(run=_cmd_eval)

    def check_args(sp, with_mutate=True):
        sp.add_argument("--ground", default="a,b")
        sp.add_argument("--window", type=int, default=3)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--cases", type=int, default=400)
        sp.add_argument("--only", help="comma-separated check ids")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        if with_mutate:
            sp.add_argument("--mutate", choices=sorted(MUTANTS),
                            help="run against a broken variant")

    pa = sub.add_parser("check-axioms", help="run the thirteen axiom checks")
    check_args(pa)
    pa.set_defaults(run=lambda args, out: _cmd_check(args, out, AXIOM_IDS, check_axiom))

    pp = sub.add_parser("check-props", help="run the derived-property checks")
    check_args(pp)
    pp.set_defaults(run=lambda args, out: _cmd_check(args, out, DERIVED_IDS,
                                                     check_derived))

    pl = sub.add_parser("check-labeling",
                        help="labeling laws and extent-embedding checks")
    check_args(pl, with_mutate=False)
    pl.add_argument("--level", choices=["quasi", "full"], default="full")
    pl.set_defaults(run=lambda args, out: _cmd_check(
        args, out, LEVELS[args.level] + EMBEDDING_IDS, check_law))

    pd = sub.add_parser("decompose",
                        help="factor a transformation into folding, bijection "
                             "and partial identity")
    pd.add_argument("transform", help="e.g. '{x1->x3, x2->x3}' or 'pi{x1,x2}'")
    pd.add_argument("--format", choices=["text", "json"], default="text")
    pd.set_defaults(run=_cmd_decompose)

    pm = sub.add_parser("embed", help="run the representation pipeline")
    pm.add_argument("--ground", default="a")
    pm.add_argument("--window", type=int, default=3)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--cases", type=int, default=200)
    pm.add_argument("--depth", type=int, default=2)
    pm.add_argument("--caps",
                    help="comma-separated overrides: symbols=N,stratum=N,vars=N")
    pm.add_argument("--format", choices=["text", "json"], default="json")
    pm.set_defaults(run=_cmd_embed)

    return p


def _parse_ground(text):
    atoms = frozenset(a.strip() for a in text.split(",") if a.strip())
    if not atoms:
        raise ValueError(f"empty ground set: {text!r}")
    return atoms


def _sample_config(args) -> SampleConfig:
    return SampleConfig(var_window=args.window, seed=args.seed, cases=args.cases)


def _exit_for(reports) -> int:
    """1 if a check failed, else 3 if one was vacuous, else 0."""
    return 1 if any(not r.passed for r in reports) else 3 if any(r.vacuous for r in reports) else 0


def _emit_reports(reports, fmt, out):
    if fmt == "json":
        json.dump({"checks": [r.to_json() for r in reports]}, out, indent=2)
        out.write("\n")
    else:
        for r in reports:
            out.write(r.summary() + "\n")


def _selected(args, known):
    if args.only is not None:
        ids = [s.strip() for s in args.only.split(",") if s.strip()]
        unknown = [s for s in ids if s not in known]
        if unknown:
            raise ValueError(f"unknown check ids {unknown} (known: {list(known)})")
        if not ids:
            raise ValueError(f"no checks match --only {args.only!r}")
        return list(dict.fromkeys(ids))  # each id once, in the order first named
    return list(known)


def _cmd_eval(args, out) -> int:
    ground = _parse_ground(args.ground) if args.ground else None
    env = {}
    for path in args.tables:
        name = Path(path).stem
        if name in env:
            raise ValueError(f"two table files are named {name!r}; a table's name is "
                             "its file's stem")
        env[name] = load_table(path, ground=ground)
    if ground is None:
        grounds = {T.ground for T in env.values()}
        if len(grounds) != 1:
            raise ValueError("pass --ground, or table files sharing one ground set")
        ground = next(iter(grounds))
    expr = exprlang.parse(args.expression)
    result = exprlang.eval_expr(expr, env, ground)
    if args.format == "grid":
        out.write(table_to_grid(result) + "\n")
    elif args.format == "csv":
        out.write(table_to_csv(result))
    else:
        out.write(json_text(table_to_json(result)) + "\n")
    return 0


def _cmd_check(args, out, ids, runner) -> int:
    subject = TableAlgebra(_parse_ground(args.ground))
    if getattr(args, "mutate", None):
        subject = make_mutant(args.mutate, subject)
    if getattr(args, "level", None):  # the laws share one labeling and its caches
        subject = singleton_labeling(subject)
    cfg = _sample_config(args)
    reports = [runner(subject, cid, cfg) for cid in _selected(args, ids)]
    _emit_reports(reports, args.format, out)
    return _exit_for(reports)


def _cmd_decompose(args, out) -> int:
    f = parse_transform(args.transform)
    delta, sigma, pi = decompose_transform(f)
    recomposed = compose(pi, compose(sigma, delta))
    ok = (recomposed == f and is_folding(delta) and is_injective(sigma)
          and is_partial_identity(pi))
    # each field's text label is its JSON key with "_" spelt as " "
    fields = {key: format_transform(t) for key, t in
              (("input", f), ("folding", delta), ("bijection", sigma),
               ("partial_identity", pi))}
    if args.format == "json":
        json.dump({**fields, "recomposition_ok": ok}, out, indent=2)
        out.write("\n")
    else:
        for key, text in fields.items():
            out.write(f"{key.replace('_', ' ') + ':':18}{text}\n")
        out.write(f"recomposition:    {'ok' if ok else 'MISMATCH'}\n")
    return 0 if ok else 1


def _parse_caps(text, depth) -> RepCaps:
    keys = {"symbols": "max_symbols", "stratum": "max_terms_per_stratum",
            "vars": "max_symbol_vars"}
    overrides = {}
    parts = text.split(",") if text else []
    for part in parts:
        k, _, v = part.partition("=")
        k = k.strip()
        if k not in keys or not v.strip().isdigit():
            raise ValueError(f"bad caps entry {part!r} (expected key=N with key "
                             f"in {sorted(keys)})")
        overrides[keys[k]] = int(v)
    return RepCaps(depth=depth, **overrides)


def _cmd_embed(args, out) -> int:
    inst = TableAlgebra(_parse_ground(args.ground))
    cfg = _sample_config(args)
    caps = _parse_caps(args.caps, args.depth)
    report = represent(inst, cfg, caps)
    if args.format == "json":
        json.dump(report.to_json(), out, indent=2)
        out.write("\n")
    else:
        out.write(f"H strata sizes: {report.strata_sizes}"
                  f"{' (truncated)' if report.stratum_truncated else ''}\n")
        out.write(f"symbols: {report.symbol_count}"
                  f"{' (truncated)' if report.symbols_truncated else ''}\n")
        out.write(f"quotient classes: {report.quotient_classes}\n")
        _emit_reports(report.checks, "text", out)
        if report.error:
            out.write(f"error: {report.error}\n")
    return 2 if report.error else _exit_for(report.checks)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.run(args, sys.stdout)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
