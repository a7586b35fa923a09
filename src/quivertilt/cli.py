"""Command-line surface.

Subcommands: `objects` (context listing), `ext-table` (E^k dimension tables),
`check` (cluster-tilting / cotorsion verdicts), `verify-theorem` (exhaustive
diagonal-cotorsion vs cluster-tilting comparison), and `search-nakayama`
(exploratory hunt for cluster-tilting subcategories of extension-closed
sub-contexts of a stable Nakayama category).

Reports are reproducible: the configuration (including the seed) is echoed
into every structured report, output ordering is canonical, and two runs
with the same flags produce byte-identical output.  Exit status: 0 = pass,
1 = checked property fails, 2 = usage or construction error, or a cotorsion
verdict that no argument here settles (an "undecided" error; see
`checkers`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .algebra import AlgebraError, BoundQuiverAlgebra, nakayama_cyclic, parse_algebra
from .checkers import (
    check_cluster_tilting,
    check_n_cotorsion,
    verify_theorem,
)
from .contexts import (
    Context,
    ContextError,
    RunConfig,
    build_exact_context,
    build_stable_context,
    build_sub_context,
)
from .decompose import DecompositionError
from .search import search_nakayama_stable
from .stable import NotSelfInjectiveError


def _algebra_hash(algebra: BoundQuiverAlgebra) -> str:
    return hashlib.sha256(repr(algebra.content_key()).encode()).hexdigest()[:16]


def _add_common(parser: argparse.ArgumentParser, with_context: bool = True):
    """The shared flags, and with `with_context` those naming the algebra and the context."""
    if with_context:
        parser.add_argument("--algebra", help="algebra spec file")
        parser.add_argument("--nakayama", metavar="N,R",
                            help="cyclic Nakayama algebra with N vertices and paths of length R zero")
    parser.add_argument("--field", type=int,
                        help="prime field characteristic (default: the spec's field line, else 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the splitting hunt, on which no answer depends, and "
                        "search-nakayama's candidate sampling")
    parser.add_argument("--budget", type=int, default=10000, help="most indecomposables to enumerate")
    parser.add_argument("--subset-budget", type=int, default=1 << 20,
                        help="most candidate subcategories each side of verify-theorem may visit; "
                        "search-nakayama spends it on both enumerations of each sub-context")
    parser.add_argument("--format", choices=["text", "structured"], default="text")
    if with_context:
        parser.add_argument("--context", choices=["mod", "stable", "sub"], default="mod")
        parser.add_argument("--parent", choices=["mod", "stable"],
                            help="ambient model for --context sub (default: mod)")
        parser.add_argument("--objects", help="comma-separated object ids for --context sub")


def _build_config(args, field_char: int) -> RunConfig:
    return RunConfig(field_char, args.seed, args.budget, args.subset_budget)


def _load_algebra(args) -> BoundQuiverAlgebra:
    if args.nakayama:
        if args.algebra:
            raise AlgebraError("--algebra and --nakayama exclude each other")
        try:
            n, r = (int(tok) for tok in args.nakayama.split(","))
        except ValueError:
            raise AlgebraError("--nakayama expects N,R") from None
        return nakayama_cyclic(n, r, 2 if args.field is None else args.field)
    if not args.algebra:
        raise AlgebraError("provide --algebra FILE or --nakayama N,R")
    with open(args.algebra, encoding="utf-8") as fh:
        algebra = parse_algebra(fh.read())
    if args.field is not None and args.field != algebra.p:
        raise AlgebraError(f"--field {args.field} differs from the spec's field {algebra.p}")
    return algebra


def _setup(args) -> tuple[RunConfig, BoundQuiverAlgebra, Context]:
    """The run's configuration, its algebra, and the context the flags name."""
    algebra = _load_algebra(args)
    config = _build_config(args, algebra.p)
    return config, algebra, _build_context(args, algebra, config)


def _build_context(args, algebra: BoundQuiverAlgebra, config: RunConfig) -> Context:
    for flag, value in (("--objects", args.objects), ("--parent", args.parent)):
        if value is not None and args.context != "sub":
            raise ContextError(f"{flag} applies only to --context sub")
    if args.context == "mod":
        return build_exact_context(algebra, config)
    if args.context == "stable":
        return build_stable_context(algebra, config)
    parent = (
        build_exact_context(algebra, config)
        if args.parent in (None, "mod")
        else build_stable_context(algebra, config)
    )
    if not args.objects:
        raise ContextError("--context sub requires --objects")
    ids = [parent.resolve_name(tok) for tok in args.objects.split(",")]
    return build_sub_context(parent, ids, config)


def _resolve_members(ctx: Context, spec: str) -> list[int]:
    if spec == "all":
        return list(range(ctx.n_objects))
    if spec in ("proj", "P"):
        return sorted(ctx.projective_ids)
    if spec in ("inj", "I"):
        return sorted(ctx.injective_ids)
    return [ctx.resolve_name(tok) for tok in spec.split(",") if tok]


def _emit(args, config, algebra, payload: dict, title: str) -> None:
    doc = {
        "command": title,
        "config": config.to_dict(),
        "algebra_hash": _algebra_hash(algebra),
        "result": payload,
    }
    if args.format == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _render_text(doc)


def _render_text(doc: dict) -> None:
    print(f"# {doc['command']}  [algebra {doc['algebra_hash']}, seed {doc['config']['seed']}]")
    _render_value(doc["result"], indent=0)


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(item, (dict, list)) for item in value
    )


def _render_value(value, indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key in value:
            v = value[key]
            if _is_scalar_list(v):
                print(f"{pad}{key}: [{', '.join(str(x) for x in v)}]")
            elif isinstance(v, (dict, list)) and v:
                print(f"{pad}{key}:")
                _render_value(v, indent + 1)
            else:
                print(f"{pad}{key}: {v}")
    elif isinstance(value, list):
        for item in value:
            if _is_scalar_list(item):
                print(f"{pad}- [{', '.join(str(x) for x in item)}]")
            elif isinstance(item, dict):
                print(f"{pad}-")
                _render_value(item, indent + 1)
            else:
                print(f"{pad}- {item}")
    else:
        print(f"{pad}{value}")


def cmd_objects(args) -> int:
    config, algebra, ctx = _setup(args)
    listing = ctx.describe()
    listing["context"] = args.context
    _emit(args, config, algebra, listing, "objects")
    return 0


def cmd_ext_table(args) -> int:
    if args.kmax < 1:
        raise ContextError("extension degree must be >= 1")
    config, algebra, ctx = _setup(args)
    tables = {}
    for k in range(1, args.kmax + 1):
        tables[f"E^{k}"] = {
            "rows": ctx.object_names,
            "table": [list(row) for row in ctx.e_k_table(k)],
        }
    _emit(args, config, algebra, {"context": args.context, "tables": tables}, "ext-table")
    return 0


def cmd_check(args) -> int:
    if args.mode == "ct" and args.y is not None:
        raise ContextError("--y applies only to --mode cotorsion")
    config, algebra, ctx = _setup(args)
    x_ids = _resolve_members(ctx, args.x)
    y_ids = _resolve_members(ctx, args.y) if args.y else None
    if args.mode == "ct":
        verdict = check_cluster_tilting(ctx, x_ids, args.degree)
    else:
        verdict = check_n_cotorsion(ctx, x_ids, x_ids if y_ids is None else y_ids, args.degree)
    payload = {
        "context": args.context,
        "mode": args.mode,
        "degree": args.degree,
        "x": sorted(ctx.object_names[i] for i in x_ids),
        "verdict": verdict.to_dict(),
    }
    if y_ids is not None:
        payload["y"] = sorted(ctx.object_names[i] for i in y_ids)
    _emit(args, config, algebra, payload, "check")
    return 0 if verdict.passed else 1


def cmd_verify_theorem(args) -> int:
    config, algebra, ctx = _setup(args)
    report = verify_theorem(ctx, args.degree)
    report["context"] = args.context
    _emit(args, config, algebra, report, "verify-theorem")
    return 0 if report["sets_equal"] else 1


def cmd_search_nakayama(args) -> int:
    algebra = nakayama_cyclic(args.vertices, args.nilpotency, 2 if args.field is None else args.field)
    config = _build_config(args, algebra.p)
    report = search_nakayama_stable(
        args.vertices,
        args.nilpotency,
        args.ct_size,
        args.ct_degree,
        config,
        generator_samples=args.generator_samples,
        close_loops=not args.no_loop_closure,
        max_candidates=args.max_candidates,
        verify_hits=not args.no_verify,
    )
    _emit(args, config, algebra, report, "search-nakayama")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivertilt",
        description="Homological checkers for bound quiver algebras and their stable categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_obj = sub.add_parser("objects", help="list context objects with P/I marks")
    _add_common(p_obj)
    p_obj.set_defaults(func=cmd_objects)

    p_ext = sub.add_parser("ext-table", help="E^k dimension tables")
    _add_common(p_ext)
    p_ext.add_argument("--kmax", type=int, default=1)
    p_ext.set_defaults(func=cmd_ext_table)

    p_chk = sub.add_parser("check", help="check a subcategory (cluster-tilting or cotorsion)")
    _add_common(p_chk)
    p_chk.add_argument("--x", required=True, help="members: ids, 'all', 'proj' or 'inj'")
    p_chk.add_argument("--y", help="second class for cotorsion mode")
    p_chk.add_argument("-n", "--degree", type=int, required=True)
    p_chk.add_argument("--mode", choices=["ct", "cotorsion"], required=True)
    p_chk.set_defaults(func=cmd_check)

    p_thm = sub.add_parser(
        "verify-theorem",
        help="compare diagonal n-cotorsion pairs with (n+1)-cluster-tilting subcategories",
    )
    _add_common(p_thm)
    p_thm.add_argument("-n", "--degree", type=int, required=True)
    p_thm.set_defaults(func=cmd_verify_theorem)

    p_srch = sub.add_parser(
        "search-nakayama",
        help="search stable Nakayama sub-contexts for cluster-tilting subcategories",
    )
    _add_common(p_srch, with_context=False)
    p_srch.add_argument("vertices", type=int)
    p_srch.add_argument("nilpotency", type=int)
    p_srch.add_argument("--ct-size", type=int, required=True)
    p_srch.add_argument("--ct-degree", type=int, required=True)
    p_srch.add_argument("--generator-samples", type=int, default=20)
    p_srch.add_argument("--max-candidates", type=int, default=64)
    p_srch.add_argument("--no-loop-closure", action="store_true",
                        help="close random generator sets under extensions only")
    p_srch.add_argument("--no-verify", action="store_true",
                        help="skip the theorem cross-check on hits")
    p_srch.set_defaults(func=cmd_search_nakayama)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, ContextError, DecompositionError, NotSelfInjectiveError, OSError,
            RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
