"""Command-line front end.

    repet2d [--csv FILE] [--budget N] [--seed N] COMMAND ...

Commands: gen, measure, grammar, access, macro, blocktree, linearize,
nd, experiment, selftest.  Tables go to stdout in aligned form, or to
the ``--csv`` path as CSV.  ``--budget`` caps the window-scan work of a
single invocation (the REPET2D_BUDGET environment variable sets the
default).  Exit codes: 0 success, 2 validation failure (including a
failed selftest), 3 work budget exceeded, 4 parse error.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from collections import Counter
from typing import Sequence

from .budget import WorkBudget
from .errors import BadParam, ParseError, Repet2dError, ShapeTooLarge

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_BUDGET = 3
EXIT_PARSE = 4


def _budget(args: argparse.Namespace) -> WorkBudget:
    """The invocation's budget: ``--budget`` (``main`` has checked that it
    is positive), else the default."""
    return WorkBudget() if args.budget is None else WorkBudget(limit=args.budget)


def _emit(args: argparse.Namespace, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Aligned table on stdout, or CSV when --csv PATH was given."""
    cells = [[str(v) for v in row] for row in rows]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(list(header))
            w.writerows(cells)
        return
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(header)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _need(value, flag: str, command: str):
    """``value`` of a flag the command cannot run without."""
    if value is None:
        raise BadParam(f"{command} needs {flag}")
    return value


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# ---------------------------------------------------------------------------
# commands: each imports the modules it uses, so that a command loads only
# those (the package's modules take longer to import than most commands run)
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    from .core2d import Matrix2D, format_matrix
    from .families import FAMILIES

    if args.list:
        _emit(args, ("family", "parameters"), [
            (name, " ".join(params)) for name, (params, _) in FAMILIES.items()
        ])
        return EXIT_OK
    if not args.family:
        raise BadParam("gen needs --family NAME (see --list)")
    if args.family not in FAMILIES:
        raise BadParam(f"unknown family {args.family!r}; see gen --list")
    names, builder = FAMILIES[args.family]
    if len(args.params) != len(names):
        raise BadParam(
            f"family {args.family} takes parameters {' '.join(names)}, "
            f"got {len(args.params)} value(s)"
        )
    obj = builder(*args.params)
    if isinstance(obj, Matrix2D):
        text = format_matrix(obj)
    else:
        from .multidim import format_nd

        text = format_nd(obj)
    _write_or_print(text, args.out)
    return EXIT_OK


def _cmd_measure(args: argparse.Namespace) -> int:
    from .core2d import factor_count, read_matrix
    from .measures import delta, delta_square, gamma_exact, gamma_lower_bound_unique

    m = read_matrix(args.infile)
    budget = _budget(args)
    wanted = args.delta or args.delta_square or args.gamma_exact or args.gamma_lb or args.pm
    rows: list[tuple[str, object]] = [
        ("rows", m.rows),
        ("cols", m.cols),
        ("alphabet", len(m.alphabet)),
    ]
    if args.delta or not wanted:
        res = delta(m, budget=budget)
        rows.append(("delta", res.value))
        rows.append(("delta_shape", f"{res.argmax_shape.k1}x{res.argmax_shape.k2}"))
    if args.delta_square or not wanted:
        res = delta_square(m, budget=budget)
        rows.append(("delta_square", res.value))
        rows.append(("delta_square_shape", f"{res.argmax_shape.k1}x{res.argmax_shape.k2}"))
    if args.gamma_exact:
        att = gamma_exact(m, square_only=args.square, cell_limit=args.cell_limit, budget=budget)
        label = "gamma_square" if args.square else "gamma"
        rows.append((label, len(att)))
        rows.append((label + "_positions", " ".join(f"{i},{j}" for i, j in sorted(att.positions))))
    if args.gamma_lb:
        rows.append(("gamma_lower_bound", gamma_lower_bound_unique(m, budget=budget)))
    if args.pm:
        k1, k2 = args.pm
        rows.append((f"factors_{k1}x{k2}", factor_count(m, k1, k2, budget=budget)))
    _emit(args, ("measure", "value"), rows)
    return EXIT_OK


def _cmd_grammar(args: argparse.Namespace) -> int:
    from .core2d import format_matrix, read_matrix
    from .grammar2d import (
        build_bk_grammar,
        build_ek_grammar,
        build_zeros_rlslp,
        expand,
        format_grammar,
        g_exact,
        grammar_tree,
        read_grammar,
        validate_grammar,
        write_grammar,
    )

    if args.action != "family":
        _need(args.infile, "--in FILE", f"grammar {args.action}")
    if args.action == "validate":
        info = validate_grammar(read_grammar(args.infile))
        _emit(args, ("property", "value"), [
            ("valid", "yes"),
            ("size", info.size),
            ("rules", len(info.dims)),
            ("rows", info.rows),
            ("cols", info.cols),
            ("runlength", "yes" if info.is_runlength else "no"),
        ])
        return EXIT_OK
    if args.action == "expand":
        m = expand(read_grammar(args.infile), _budget(args))
        _write_or_print(format_matrix(m), args.out)
        return EXIT_OK
    if args.action == "tree":
        g = read_grammar(args.infile)
        t = grammar_tree(g)
        kinds = Counter()
        stack = [t.root]
        while stack:
            node = stack.pop()
            kinds[node.kind] += 1
            stack.extend(node.children)
        rows = [("nodes", t.node_count)] + sorted(kinds.items())
        _emit(args, ("property", "value"), rows)
        return EXIT_OK
    if args.action == "minimize":
        m = read_matrix(args.infile)
        res = g_exact(m, allow_runs=args.runs, budget=_budget(args))
        if args.out:
            write_grammar(res.grammar, args.out)
        _emit(args, ("property", "value"), [
            ("size", res.size),
            ("optimal", "yes" if res.optimal else "no"),
            ("work", res.work),
        ])
        return EXIT_OK
    assert args.action == "family"
    builders = {"ek": build_ek_grammar, "bk": build_bk_grammar, "zeros": build_zeros_rlslp}
    if args.name not in builders:
        raise BadParam(f"--name must be one of {', '.join(builders)}, got {args.name!r}")
    g = builders[args.name](_need(args.param, "--param INT", "grammar family"))
    _write_or_print(format_grammar(g), args.out)
    return EXIT_OK


def _cmd_access(args: argparse.Namespace) -> int:
    from .access2d import access, build_index, full_scan
    from .grammar2d import read_grammar

    budget = _budget(args)
    index = build_index(read_grammar(args.grammar), budget)
    if args.query:
        y, x = args.query
        symbol, hops = access(index, y, x)
        _emit(args, ("property", "value"), [
            ("symbol", symbol), ("hops", hops),
        ])
        return EXIT_OK
    if not args.verify_all:
        raise BadParam("access needs --query Y X or --verify-all")
    report = full_scan(index, budget)
    print(
        f"cells {index.rows * index.cols}  matches {'yes' if report.matches else 'no'}  "
        f"max_hops {report.max_hops}  hop_bound {report.hop_bound}"
    )
    _emit(args, ("hops", "cells"), sorted(report.histogram.items()))
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_macro(args: argparse.Namespace) -> int:
    from .core2d import format_matrix, read_matrix
    from .grammar2d import read_grammar
    from .macroscheme import (
        b_exact,
        decode,
        format_scheme,
        from_grammar,
        read_scheme,
        validate_scheme,
        write_scheme,
    )

    if args.action == "validate":
        check = validate_scheme(read_scheme(args.infile), _budget(args))
        _emit(args, ("property", "value"), [
            ("valid", "yes" if check.ok else "no"),
            ("size", check.size),
            ("error", check.error or ""),
            ("message", check.message or ""),
        ])
        return EXIT_OK if check.ok else EXIT_FAIL
    if args.action == "decode":
        m = decode(read_scheme(args.infile), _budget(args))
        _write_or_print(format_matrix(m), args.out)
        return EXIT_OK
    if args.action == "from-grammar":
        s = from_grammar(read_grammar(args.infile))
        _write_or_print(format_scheme(s), args.out)
        return EXIT_OK
    assert args.action == "minimize"
    m = read_matrix(args.infile)
    s = b_exact(m, cell_limit=args.cell_limit, budget=_budget(args))
    if args.out:
        write_scheme(s, args.out)
    _emit(args, ("property", "value"), [
        ("size", s.size),
        ("explicit", len(s.explicit)),
        ("phrases", len(s.phrases)),
    ])
    return EXIT_OK


def _cmd_blocktree(args: argparse.Namespace) -> int:
    from .blocktree2d import build_blocktree, count_pruned, node_count
    from .core2d import read_matrix

    m = read_matrix(args.infile)
    bt = build_blocktree(m, args.arity, pad_to=args.pad_to, budget=_budget(args))
    side = bt.padded_side
    rows = []
    for level, n in enumerate(bt.levels):
        rows.append((level, side, n))
        side //= bt.arity
    pruned = count_pruned(bt, min_side=args.min_side, in_region_only=True)
    print(
        f"padded_side {bt.padded_side}  total_nodes {node_count(bt)}  "
        f"pruned_inside_side>={args.min_side} {pruned}"
    )
    _emit(args, ("level", "block_side", "nodes"), rows)
    return EXIT_OK


def _cmd_linearize(args: argparse.Namespace) -> int:
    from .core2d import format_matrix, read_matrix
    from .linearize import phlin, rlin

    m = read_matrix(args.infile)
    flat = rlin(m) if args.method == "row" else phlin(m)
    _write_or_print(format_matrix(flat), args.out)
    return EXIT_OK


def _cmd_nd(args: argparse.Namespace) -> int:
    from . import multidim as nd

    if args.action == "measure":
        x = nd.read_nd(_need(args.infile, "--in FILE", "nd measure"))
        budget = _budget(args)
        rows: list[tuple[str, object]] = [
            ("dims", " ".join(map(str, x.dims))),
            ("alphabet", len(x.alphabet)),
        ]
        if args.delta or not args.pm:
            rows.append(("delta", nd.delta_nd(x, budget=budget)))
        if args.pm:
            if len(args.pm) != x.ndim:
                raise BadParam(
                    f"--pm needs {x.ndim} side(s) for a {x.ndim}-dimensional input"
                )
            label = "x".join(map(str, args.pm))
            rows.append((f"factors_{label}", nd.factor_count_nd(x, args.pm, budget=budget)))
        _emit(args, ("measure", "value"), rows)
        return EXIT_OK
    assert args.action == "grammar"
    d, k = args.params
    g = nd.build_bdk_grammar(d, k)
    cube = nd.bdk(d, k)
    ok = nd.expand_nd(g, budget=_budget(args)) == cube
    if args.out:
        nd.write_nd(args.out, cube)
    _emit(args, ("property", "value"), [
        ("size", g.size),
        ("rules", len(g.rules)),
        ("expand_ok", "yes" if ok else "no"),
    ])
    return EXIT_OK if ok else EXIT_FAIL


def _parse_experiment_params(tokens: Sequence[str]) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []
    for tok in tokens:
        try:
            out.append(tuple(int(p) for p in tok.split(",")))
        except ValueError:
            raise BadParam(f"experiment parameters must be integers, got {tok!r}")
    return tuple(out)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import experiments

    if args.list:
        _emit(args, ("experiment", "rows", "description"), [
            (name, len(experiments.REGISTRY[name].default_params), experiments.REGISTRY[name].blurb)
            for name in experiments.experiment_names()
        ])
        return EXIT_OK
    if not args.name:
        raise BadParam("experiment needs --name NAME (see --list)")
    spec = experiments.default_spec(args.name)
    if args.params is not None:
        spec = experiments.ExperimentSpec(spec.name, _parse_experiment_params(args.params))
    result = experiments.run_experiment(spec)
    out = args.out or args.csv
    if out:
        experiments.write_result(result, out)
        print(result.summary)
    else:
        print(result.to_csv(), end="")
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import accept

    started = time.time()
    results = accept.run_all(quick=args.quick, seed=args.seed)
    for res in results:
        print(res.line)
        if not res.ok or args.verbose:
            for detail in res.details:
                print("   ", detail)
    failed = [res.number for res in results if not res.ok]
    mode = "quick" if args.quick else "full"
    print(
        f"selftest ({mode}): {len(results) - len(failed)}/{len(results)} criteria passed "
        f"in {time.time() - started:.1f}s"
    )
    if failed:
        print(f"failed criteria: {', '.join(map(str, failed))}")
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _global_flags(p: argparse.ArgumentParser, top: bool) -> None:
    """The global flags are accepted both before and after the subcommand;
    the after-subcommand copies use SUPPRESS so an absent flag does not
    clobber a value parsed at the top level."""
    absent = {} if top else {"default": argparse.SUPPRESS}
    p.add_argument("--csv", metavar="FILE", help="write tabular output as CSV to FILE", **absent)
    p.add_argument(
        "--budget", type=int, metavar="N",
        help="work budget (default: REPET2D_BUDGET or 10^9)", **absent,
    )
    p.add_argument(
        "--seed", type=int, metavar="N",
        help="seed for randomized suites",
        **({"default": 0} if top else {"default": argparse.SUPPRESS}),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repet2d",
        description="Repetitiveness measures and compressed representations for 2D strings.",
    )
    _global_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        _global_flags(p, top=False)
        return p

    p = add("gen", help="emit a named matrix family instance")
    p.add_argument("--family", metavar="NAME")
    p.add_argument("--params", type=int, nargs="*", default=[], metavar="INT")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--list", action="store_true", help="list families and their parameters")
    p.set_defaults(func=_cmd_gen)

    p = add("measure", help="repetitiveness measures of a matrix")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--delta", action="store_true")
    p.add_argument("--delta-square", action="store_true")
    p.add_argument("--gamma-exact", action="store_true")
    p.add_argument("--square", action="store_true", help="restrict gamma to square factors")
    p.add_argument("--gamma-lb", action="store_true", help="unique-factor lower bound on gamma")
    p.add_argument("--pm", type=int, nargs=2, metavar=("K1", "K2"), help="count distinct k1 x k2 factors")
    p.add_argument("--cell-limit", type=int, default=20, metavar="N", help="refuse exact gamma beyond this many cells")
    p.set_defaults(func=_cmd_measure)

    p = add("grammar", help="validate, expand, draw or minimize grammars")
    p.add_argument("action", choices=("validate", "expand", "tree", "minimize", "family"))
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--runs", action="store_true", help="minimize: allow run-length rules")
    p.add_argument("--name", metavar="NAME", help="family: ek, bk or zeros")
    p.add_argument("--param", type=int, metavar="INT", help="family parameter")
    p.set_defaults(func=_cmd_grammar)

    p = add("access", help="random access into a grammar's expansion")
    p.add_argument("--grammar", required=True, metavar="FILE")
    p.add_argument("--query", type=int, nargs=2, metavar=("Y", "X"))
    p.add_argument("--verify-all", action="store_true", help="check every cell and print a hop histogram")
    p.set_defaults(func=_cmd_access)

    p = add("macro", help="validate, decode or minimize macro schemes")
    p.add_argument("action", choices=("validate", "decode", "from-grammar", "minimize"))
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--cell-limit", type=int, default=9, metavar="N", help="minimize: refuse inputs with more cells")
    p.set_defaults(func=_cmd_macro)

    p = add("blocktree", help="build a block tree and report its levels")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--arity", type=int, default=2, metavar="C")
    p.add_argument("--pad-to", type=int, metavar="N")
    p.add_argument("--min-side", type=int, default=1, metavar="K", help="side threshold for the pruned-block count")
    p.set_defaults(func=_cmd_blocktree)

    p = add("linearize", help="flatten a matrix to one row")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--method", choices=("row", "hilbert"), required=True)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_linearize)

    p = add("nd", help="d-dimensional strings")
    p.add_argument("action", choices=("measure", "grammar"))
    p.add_argument("--params", type=int, nargs=2, default=(2, 2), metavar=("D", "K"))
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--delta", action="store_true")
    p.add_argument("--pm", type=int, nargs="+", metavar="SIDE", help="count distinct factors of this shape")
    p.set_defaults(func=_cmd_nd)

    p = add("experiment", help="run a named experiment table")
    p.add_argument("--name", metavar="NAME")
    p.add_argument("--params", nargs="*", metavar="P", help="override the parameter range (comma-join tuples)")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    p = add("selftest", help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true", help="reduced ranges, finishes well under a minute")
    p.add_argument("--verbose", action="store_true", help="print details for passing criteria too")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.budget is not None and args.budget <= 0:
            raise BadParam(f"--budget must be positive, got {args.budget}")
        return args.func(args)
    except ParseError as exc:
        print(f"repet2d: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ShapeTooLarge as exc:
        print(f"repet2d: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Repet2dError as exc:
        print(f"repet2d: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"repet2d: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
