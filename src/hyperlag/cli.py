"""Command-line interface.

Subcommands: gen, solve, eval, compress, clique, link, verify. Exit status is
0 on success or a pass verdict, 1 on a fail verdict, 2 on usage or parse
errors, 3 on an inconclusive verdict. Text output prints 15 significant
digits; JSON is binary-faithful.

solve and verify take one flag per field of SolverConfig: --restarts and
--seed; the solver's thresholds, its step cap and every resource limit are
fixed constants. verify refuses a setting the claim does not use: --m for
lemma-2.2 and sharpness, and the solver settings for sharpness.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .errors import ParseError, ResourceLimitError
from .harness import (
    HARNESS_SOLVER,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_claim,
)
from .hypergraph import (
    colex_graph,
    complete_graph,
    format_hypergraph,
    left_compress,
    link,
    max_clique_order,
    parse_hypergraph,
)
from .solver import SolverConfig, evaluate, solve

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {"pass": EXIT_OK, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}


_SOLVER_FIELDS = [f.name for f in dataclasses.fields(SolverConfig)]


def _add_solver_flags(p: argparse.ArgumentParser):
    group = p.add_argument_group("solver settings")
    for name in _SOLVER_FIELDS:
        group.add_argument("--" + name.replace("_", "-"), type=int, default=None)


def _solver_config(args, base: SolverConfig) -> SolverConfig | None:
    """`base` with the solver flags given, or None when none is given."""
    overrides = {f: getattr(args, f) for f in _SOLVER_FIELDS if getattr(args, f) is not None}
    return dataclasses.replace(base, **overrides) if overrides else None


def _load(path: str):
    try:
        with open(path) as fh:
            return parse_hypergraph(fh.read())
    except FileNotFoundError:
        raise SystemExit(f"no such file: {path}")
    except ParseError as exc:
        raise SystemExit(f"{path}: {exc}")


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_weights(raw: str, n: int) -> list[float]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        fracs = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"bad --weights {raw!r}; give comma-separated numbers")
    if len(fracs) != n:
        raise SystemExit(f"expected {n} weights, got {len(fracs)}")
    return [float(f) for f in fracs]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hyperlag", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a hypergraph file")
    gsub = gen.add_subparsers(dest="family", required=True)
    gc = gsub.add_parser("colex", help="first m r-sets in colex order")
    gc.add_argument("--r", type=int, required=True)
    gc.add_argument("--m", type=int, required=True)
    gc.add_argument("-o", "--output", default=None)
    gk = gsub.add_parser("complete", help="all r-subsets of t vertices")
    gk.add_argument("--r", type=int, required=True)
    gk.add_argument("--t", type=int, required=True)
    gk.add_argument("-o", "--output", default=None)

    sv = sub.add_parser("solve", help="maximize the edge polynomial")
    sv.add_argument("file")
    sv.add_argument("--format", choices=["text", "json"], default="text")
    sv.add_argument("-o", "--output", default=None)
    _add_solver_flags(sv)

    ev = sub.add_parser("eval", help="evaluate at a fixed weighting")
    ev.add_argument("file")
    ev.add_argument("--weights", required=True, help="comma list; rationals allowed")
    ev.add_argument("--format", choices=["text", "json"], default="text")

    cp = sub.add_parser("compress", help="left-compress the edge set")
    cp.add_argument("file")
    cp.add_argument("-o", "--output", default=None)

    cq = sub.add_parser("clique", help="maximum clique order")
    cq.add_argument("file")

    lk = sub.add_parser("link", help="link view at pinned vertices")
    lk.add_argument("file")
    lk.add_argument("--pin", required=True, help="one or two vertices, comma-separated")
    lk.add_argument("--complement", action="store_true")
    lk.add_argument("--minus", type=int, default=None)
    lk.add_argument("--format", choices=["text", "json"], default="text")

    vf = sub.add_parser("verify", help="run a claim check")
    vf.add_argument("claim")
    vf.add_argument("--t", type=int, default=None)
    vf.add_argument("--r", type=int, default=None)
    vf.add_argument("--m", type=int, default=None)
    vf.add_argument("--format", choices=["text", "json", "csv"], default="json")
    vf.add_argument("-o", "--output", default=None)
    _add_solver_flags(vf)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        raise
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "gen":
        g = (
            colex_graph(args.r, args.m)
            if args.family == "colex"
            else complete_graph(args.t, args.r)
        )
        _emit(format_hypergraph(g), args.output)
        return EXIT_OK

    if args.command == "solve":
        g = _load(args.file)
        rep = solve(g, _solver_config(args, SolverConfig()))
        if args.format == "json":
            _emit(json.dumps(dataclasses.asdict(rep), sort_keys=True, indent=2) + "\n", args.output)
        else:
            lines = [
                f"value = {rep.value:.15g}",
                f"converged = {str(rep.converged).lower()}",
                f"kkt_residual = {rep.kkt_residual:.15g}",
                "support = " + " ".join(str(v) for v in rep.support),
                "weighting = " + " ".join(f"{w:.15g}" for w in rep.weighting),
                f"iterations = {rep.iterations}",
                f"restarts_used = {rep.restarts_used}",
                f"pairs_covered = {str(rep.pairs_covered).lower()}",
            ]
            _emit("\n".join(lines) + "\n", args.output)
        return EXIT_OK

    if args.command == "eval":
        g = _load(args.file)
        value = evaluate(g, _parse_weights(args.weights, g.n))
        if args.format == "json":
            print(json.dumps({"value": value}))
        else:
            print(f"{value:.15g}")
        return EXIT_OK

    if args.command == "compress":
        g = _load(args.file)
        _emit(format_hypergraph(left_compress(g)), args.output)
        return EXIT_OK

    if args.command == "clique":
        print(max_clique_order(_load(args.file)))
        return EXIT_OK

    if args.command == "link":
        g = _load(args.file)
        try:
            pins = [int(p) for p in args.pin.split(",") if p.strip()]
        except ValueError:
            raise SystemExit(f"bad --pin {args.pin!r}")
        try:
            sets = link(g, pins, complemented=args.complement, difference_against=args.minus)
        except IndexError as exc:
            raise SystemExit(str(exc))
        members = sorted(sets)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "pinned": sorted(set(pins)),
                        "complemented": args.complement,
                        "minus": args.minus,
                        "sets": [list(s) for s in members],
                    },
                    sort_keys=True,
                )
            )
        else:
            for s in members:
                print(" ".join(str(v) for v in s))
        return EXIT_OK

    # "verify": argparse refuses any command not handled above
    report = run_claim(
        args.claim,
        t=args.t,
        r=args.r,
        m=args.m,
        config=_solver_config(args, HARNESS_SOLVER),
    )
    render = {"json": report_to_json, "csv": report_to_csv, "text": report_to_text}
    _emit(render[args.format](report), args.output)
    return _VERDICT_EXIT[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
