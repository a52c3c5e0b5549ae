"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses exact literals,
invokes one operation, and prints deterministic text.  argparse only splits the
command line; every literal, the integer flags included, goes through `parsing`.
Integers of any size are read and printed in full.  A variable name is what a
polynomial reads as one: a letter or '_', then letters, digits or '_'.
Exit codes: 0 success, 1 mathematical refutation (a claim checked false, e.g. an
obstruction under --expect-unobstructed), 2 usage or parse errors and unreadable
input files, 3 a failed internal cross-check (a defect in the engine, not in the
input).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence, Tuple

from .cech import Cochain1, Obstruction, PresentedSheaf, solve_coboundary
from .errors import (InternalCheckError, JetliftError, LiftObstructedError,
                     ParseError, PreconditionError)
from .flows import (flow_jet, jet_defect, stratum_invariance_check, verify_dj)
from .frobenius import (CounterexamplePoint, Distribution, InvolutivityCertificate,
                        NotFoundUpTo, grid_points, involutivity_certificate,
                        rank_at, strata_sample)
from .lifting import lift_to_order
from .parsing import (parse_field, parse_grid, parse_integer, parse_names,
                      parse_point, parse_poly, parse_window, split_list)
from .scenario import parse_scenario_file
from .vectorfields import iterated_bracket, lie_bracket

__all__ = ["main"]


def _vars(text: str) -> Tuple[str, ...]:
    return parse_names(text, where=" in --vars")


def _parse_gens(text: str, names: Sequence[str]):
    return [parse_field(part, names, col_offset=offset)
            for part, offset in split_list(text, ";")]


def _cmd_bracket(args) -> int:
    names = _vars(args.vars)
    d1 = parse_field(args.f1, names)
    d2 = parse_field(args.f2, names)
    print(lie_bracket(d1, d2).render(names))
    return 0


def _cmd_iterbracket(args) -> int:
    names = _vars(args.vars)
    d1 = parse_field(args.f1, names)
    d2 = parse_field(args.f2, names)
    print(iterated_bracket(d1, d2, args.n).render(names))
    return 0


def _cmd_flowjet(args) -> int:
    names = _vars(args.vars)
    field = parse_field(args.field, names)
    point = parse_point(args.point, len(names))
    print(flow_jet(field, point, args.order).render())
    return 0


def _cmd_defect(args) -> int:
    names = _vars(args.vars)
    d1 = parse_field(args.f1, names)
    d2 = parse_field(args.f2, names)
    point = parse_point(args.point, len(names))
    try:
        print(jet_defect(d1, d2, point, args.n).render())
    except PreconditionError as exc:
        print(f"REFUTED: {exc}")
        return 1
    return 0


def _cmd_verify_dj(args) -> int:
    names = _vars(args.vars)
    d1 = parse_field(args.f1, names)
    d2 = parse_field(args.f2, names)
    point = parse_point(args.point, len(names))
    try:
        report = verify_dj(d1, d2, point, args.n)
    except PreconditionError as exc:
        print(f"REFUTED: {exc}")
        return 1
    print(report.render())
    return 0 if report.agree else 1


def _cmd_rank(args) -> int:
    names = _vars(args.vars)
    dist = Distribution(len(names), _parse_gens(args.gens, names))
    point = parse_point(args.point, len(names))
    print(rank_at(dist, point))
    return 0


def _cmd_involutive(args) -> int:
    names = _vars(args.vars)
    dist = Distribution(len(names), _parse_gens(args.gens, names))
    verdict = involutivity_certificate(dist, args.degree)
    if isinstance(verdict, InvolutivityCertificate):
        if not verdict.pairs:
            print(f"CERTIFIED degree {verdict.degree_bound}: single generator")
        for (i, j), coeffs in sorted(verdict.pairs.items()):
            combo = " + ".join(f"({c.render(names)})*D{k + 1}"
                               for k, c in enumerate(coeffs))
            print(f"CERTIFIED degree {verdict.degree_bound}: "
                  f"[D{i + 1},D{j + 1}] = {combo}")
        return 0
    if isinstance(verdict, CounterexamplePoint):
        pt = "(" + ",".join(str(c) for c in verdict.point) + ")"
        print(f"REFUTED: [D{verdict.pair[0] + 1},D{verdict.pair[1] + 1}] leaves "
              f"the span at {pt} (rank {verdict.rank_without} -> "
              f"{verdict.rank_with})")
        return 1
    assert isinstance(verdict, NotFoundUpTo)
    print(f"INCONCLUSIVE up to degree {verdict.degree_bound}")
    return 0


def _cmd_strata(args) -> int:
    names = _vars(args.vars)
    dist = Distribution(len(names), _parse_gens(args.gens, names))
    ranges = parse_grid(args.grid, names)
    report = strata_sample(dist, grid_points(ranges))
    print(report.render())
    return 0


def _cmd_invariance(args) -> int:
    names = _vars(args.vars)
    dist = Distribution(len(names), _parse_gens(args.gens, names))
    combo = [parse_poly(part, names, col_offset=offset)
             for part, offset in split_list(args.combo, ";")]
    point = parse_point(args.point, len(names))
    report = stratum_invariance_check(dist, combo, point, args.order)
    print(report.render())
    return 0 if report.invariant else 1


def _cmd_cohomology(args) -> int:
    zname, wname = args.param, args.coparam
    transition = parse_poly(args.transition, [zname], allow_laurent=True)
    window = parse_window(args.window)
    nu = parse_poly(args.nu, [zname], allow_laurent=True)
    sheaf = PresentedSheaf.line_bundle(transition)
    cochain = Cochain1(sheaf, [nu], window)
    result = solve_coboundary(cochain)
    if isinstance(result, Obstruction):
        print(result.render(zname))
        return 1 if args.expect_unobstructed else 0
    print(f"lambda0 = {result.chart0[0].render([zname])}")
    print(f"lambda1 = {result.chart1[0].render([wname])}")
    return 0


def _cmd_lift(args) -> int:
    scenario = parse_scenario_file(args.scenario)
    try:
        result = lift_to_order(scenario, args.order)
    except LiftObstructedError as exc:
        print(f"LIFT OBSTRUCTED at order {exc.order}: cokernel dimension "
              f"{exc.cokernel_dim}")
        for k, p in enumerate(exc.residual):
            print(f"class g{k}: {p.render([scenario.curve.z_name])}")
        return 1
    print(result.render())
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlift",
        description="Exact jets, Lie brackets, rank strata, and Čech lifting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("bracket", _cmd_bracket, help="Lie bracket of two fields")
    p.add_argument("--vars", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)

    p = add("iterbracket", _cmd_iterbracket, help="iterated Lie bracket")
    p.add_argument("--vars", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--n", required=True)

    p = add("flowjet", _cmd_flowjet, help="jet of the integral curve")
    p.add_argument("--vars", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--order", required=True)

    p = add("defect", _cmd_defect, help="top-order difference of two flows")
    p.add_argument("--vars", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--n", required=True)

    p = add("verify-dj", _cmd_verify_dj,
            help="defect three ways: jets, derivation powers, bracket")
    p.add_argument("--vars", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--n", required=True)

    p = add("rank", _cmd_rank, help="pointwise rank of a distribution")
    p.add_argument("--vars", required=True)
    p.add_argument("--gens", required=True, help="fields separated by ';'")
    p.add_argument("--point", required=True)

    p = add("involutive", _cmd_involutive, help="involutivity certificate search")
    p.add_argument("--vars", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--degree", default="0")

    p = add("strata", _cmd_strata, help="rank stratification on a grid")
    p.add_argument("--vars", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--grid", required=True, help='e.g. "x=-1:1:1, y=-1:1:1"')

    p = add("invariance", _cmd_invariance,
            help="rank minors along the flow of a generator combination")
    p.add_argument("--vars", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--combo", required=True, help="coefficients separated by ';'")
    p.add_argument("--point", required=True)
    p.add_argument("--order", default="10")

    p = add("cohomology", _cmd_cohomology,
            help="split a 1-cochain or report the obstruction")
    p.add_argument("--transition", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--window", required=True, help='e.g. "-4 4"')
    p.add_argument("--param", default="z")
    p.add_argument("--coparam", default="w")
    p.add_argument("--expect-unobstructed", action="store_true")

    p = add("lift", _cmd_lift, help="run a lifting scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--order")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)    # exact integers of any size, in and out
    try:
        # argparse keeps the integer flags as text; they follow parse_integer
        for dest in ("n", "order", "degree"):
            text = getattr(args, dest, None)
            if text is not None:
                setattr(args, dest, parse_integer(text, f"--{dest} needs an integer"))
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (JetliftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
