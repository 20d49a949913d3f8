"""Command-line front end: tables, diagrams, and the verification suites.

Exit codes: 0 when every requested check passes (queries always pass),
1 when a verification fails, 2 on usage errors.  Output is deterministic
for fixed flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import re
import sys
import time
from fractions import Fraction
from itertools import islice

from . import core, dimension_group, ideals, path_algebra, traces


def _fraction(text: str) -> Fraction:
    try:
        return core.parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _level_poly(text: str) -> dimension_group.LevelPoly:
    try:
        level_text, _, coeff_text = text.partition(":")
        level = int(level_text)
        coeffs = tuple(int(c) for c in coeff_text.split(","))
        return dimension_group.LevelPoly(level, coeffs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected 'level:c0,c1,...' with 2**level coefficients, got {text!r}"
        ) from exc


def _poly_text(p: dimension_group.LevelPoly) -> str:
    return f"{p.level}:{','.join(map(str, p.coeffs))}"


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one line, ``prog: error: message``,
    with exit 2; its subcommand parsers are of this class too.  A negative
    fraction such as -1/2 is a value, as argparse reads -0.5, so that it
    reaches the value's own check rather than being taken for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's pattern for negative numbers, with -p/q added
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="farey-bratteli",
        description="exact checks on the Farey/Stern-Brocot diagram and its operator model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_row = sub.add_parser("row", help="print one floor of the tree")
    p_row.add_argument("--floor", type=int, required=True)
    part = p_row.add_mutually_exclusive_group()
    part.add_argument("--numerators", action="store_true")
    part.add_argument("--denominators", action="store_true")

    p_qmark = sub.add_parser("qmark", help="question-mark function, both directions")
    qmark_sub = p_qmark.add_subparsers(dest="direction", required=True)
    q_eval = qmark_sub.add_parser("eval")
    q_eval.add_argument("value", type=_fraction)
    q_inv = qmark_sub.add_parser("inv")
    q_inv.add_argument("value", type=_fraction)

    p_ideal = sub.add_parser("ideal", help="quotient level sets of a primitive ideal")
    p_ideal.add_argument("--theta", required=True, help="p/q, or cf:a1,a2,... for an irrational prefix")
    p_ideal.add_argument("--variant", choices=("plain", "plus", "minus"), default="plain")
    p_ideal.add_argument("--depth", type=int, required=True)
    p_ideal.add_argument("--format", choices=("json", "dot"), default="json")

    p_k0 = sub.add_parser("k0", help="dimension-group arithmetic")
    k0_sub = p_k0.add_subparsers(dest="operation", required=True)
    k_add = k0_sub.add_parser("add")
    k_add.add_argument("left", type=_level_poly)
    k_add.add_argument("right", type=_level_poly)
    k_pos = k0_sub.add_parser("pos")
    k_pos.add_argument("poly", type=_level_poly)
    k_lift = k0_sub.add_parser("lift")
    k_lift.add_argument("poly", type=_level_poly)
    k_lift.add_argument("--to", type=int, required=True)
    k_id = k0_sub.add_parser("identity")
    k_id.add_argument("--max-level", type=int, default=10)

    p_gen = sub.add_parser("gen", help="denominator generating-function coefficients")
    p_gen.add_argument("--terms", type=int, required=True)

    p_trace = sub.add_parser("trace", help="check a trace candidate")
    trace_sub = p_trace.add_subparsers(dest="operation", required=True)
    t_check = trace_sub.add_parser("check")
    t_check.add_argument("--spec", required=True, help="candidate JSON file")
    t_check.add_argument("--depth", type=int, required=True)

    p_paths = sub.add_parser("paths", help="path counts of the floor-N model")
    p_paths.add_argument("--floor", type=int, required=True)

    p_rel = sub.add_parser("relations", help="operator relation suites")
    p_rel.add_argument("--floor", type=int, required=True)
    p_rel.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(1))
    p_rel.add_argument("--suite", choices=("base", "yb", "braiding", "all"), default="all")
    p_rel.add_argument("--json", action="store_true", help="dump the full report as JSON")
    p_rel.add_argument(
        "--stats",
        action="store_true",
        help="write one JSON object to stderr: per section, checks, failures, seconds, checks decided per floor, "
        "operator products and the most nonzero entries in one product",
    )

    p_zeta = sub.add_parser("zeta", help="truncated totient Dirichlet series")
    p_zeta.add_argument("--s", type=_finite_float, required=True)
    p_zeta.add_argument("--qmax", type=int, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused for the rest
    of the process; parsing leaves no state on it."""
    return build_parser()


# labels, numerators or denominators per write of the row command, so that
# no list or string of the whole line is ever built
_ROW_CHUNK = 2**12


def _cmd_row(args) -> int:
    nums = core.row_numerators(args.floor)
    dens = map(operator.add, nums, reversed(nums))  # s(k) + s(2**n - k), streamed
    labels = not (args.numerators or args.denominators)
    if labels:
        # a denominator is at most twice the largest numerator, so one string
        # table covers both parts; a label is " p/" and "q"
        top = max(nums)
        text = list(map(str, range(2 * top + 1)))
        prefix = [f" {t}/" for t in text[: top + 1]]
    write = sys.stdout.write
    for lo in range(0, len(nums), _ROW_CHUNK):
        num = nums[lo : lo + _ROW_CHUNK]
        den = islice(dens, len(num))
        if not labels:
            chunk = " ".join(map(str, num if args.numerators else den))
            write(f" {chunk}" if lo else chunk)
            continue
        parts = [""] * (2 * len(num))
        parts[0::2] = map(prefix.__getitem__, num)
        parts[1::2] = map(text.__getitem__, den)
        # only the endpoints 0/1 and 1/1 have denominator 1; print them as str(Fraction) does
        if lo == 0:
            parts[:2] = ["0"]
        if lo + len(num) == len(nums):
            parts[-2:] = [" 1"]
        write("".join(parts))
    write("\n")
    return 0


def _cmd_qmark(args) -> int:
    if args.direction == "eval":
        print(core.question_mark(args.value))
        return 0
    dyadic = args.value
    n = dyadic.denominator.bit_length() - 1
    if 2**n != dyadic.denominator or not 0 <= dyadic <= 1:
        print(f"not a dyadic in [0, 1]: {dyadic}", file=sys.stderr)
        return 2
    print(core.question_mark_inv(dyadic.numerator, n))
    return 0


def _parse_theta(parser: argparse.ArgumentParser, text: str, depth: int):
    if text.startswith("cf:"):
        try:
            terms = tuple(int(a) for a in text[3:].split(","))
        except ValueError:
            parser.error(f"bad continued-fraction prefix {text!r}")
        if any(a < 1 for a in terms):
            parser.error("continued-fraction terms must be positive")
        if sum(terms) <= depth:
            parser.error(
                f"prefix term sum {sum(terms)} must exceed the depth {depth}; "
                "a truncated prefix cannot pin the diagram that deep"
            )
        return ideals.CFStream(iter(terms))
    try:
        return core.parse_fraction(text)
    except ValueError as exc:
        parser.error(f"{exc} (--theta takes p/q or cf:a1,a2,...)")


def _cmd_ideal(args) -> int:
    theta = _parse_theta(_parser(), args.theta, args.depth)
    levels = ideals.quotient_levels(ideals.IdealSpec(theta, args.variant), args.depth)
    if args.format == "json":
        print(ideals.levelset_to_json(levels))
    else:
        print(ideals.levelset_to_dot(levels))
    return 0


def _cmd_k0(args) -> int:
    if args.operation == "add":
        print(_poly_text(dimension_group.add_classes(args.left, args.right)))
        return 0
    if args.operation == "pos":
        print("positive" if dimension_group.is_positive_class(args.poly) else "not-positive")
        return 0
    if args.operation == "lift":
        print(_poly_text(dimension_group.beta_lift(args.poly, args.to)))
        return 0
    if not 0 <= args.max_level <= dimension_group.MAX_UNIT_LEVEL:
        raise ValueError(f"--max-level must lie in 0..{dimension_group.MAX_UNIT_LEVEL}")
    failed = False
    for n in range(args.max_level + 1):
        ok = dimension_group.verify_unit_decomposition(n)
        failed = failed or not ok
        print(f"level {n}: unit decomposition {'pass' if ok else 'FAIL'}")
    return 1 if failed else 0


def _cmd_gen(args) -> int:
    print(" ".join(map(str, dimension_group.stern_brocot_generating(args.terms))))
    return 0


def _cmd_trace(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        candidate = traces.candidate_from_json(handle.read())
    report = traces.check_trace(candidate, args.depth)
    mode = "exact" if report.exact else "necessary-only"
    if report.valid:
        print(f"valid ({mode}, depth {args.depth}, {len(report.rows)} vertices)")
        return 0
    _, value, mass = report.rows[report.rows.position(report.first_violation)]
    print(f"INVALID ({mode}): first violation at {report.first_violation}: " f"phi = {value} < branch mass {mass}")
    return 1


def _cmd_paths(args) -> int:
    ctx = path_algebra.path_context(args.floor)
    _, block_sizes = core.row_ints(args.floor)
    print(f"total {ctx.dim}")
    failed = ctx.dim != 3**args.floor + 1
    counts: dict[int, int] = {}
    for endpoint in ctx.endpoint:
        counts[endpoint] = counts.get(endpoint, 0) + 1
    for k in range(2**args.floor + 1):
        got, want = counts.get(k, 0), block_sizes[k]
        marker = "" if got == want else "  MISMATCH"
        failed = failed or got != want
        print(f"endpoint {k}: {got} paths (block size {want}){marker}")
    return 1 if failed else 0


def _cmd_relations(args) -> int:
    rep = path_algebra.Representation(args.floor, args.lam)
    sections = {
        "base": lambda: path_algebra.verify_relation_suite(args.floor, args.lam, rep),
        "yb": lambda: path_algebra.yang_baxter_check(args.floor, args.lam, rep=rep),
        "braiding": lambda: path_algebra.verify_braiding_suite(args.floor, args.lam, rep),
    }
    report, stats = path_algebra.Report(), {}
    for name in sections if args.suite == "all" else (args.suite,):
        start = time.perf_counter()
        section = sections[name]()
        if args.stats:
            stats[name] = {
                "checks": len(section.checks),
                "failures": len(section.failures()),
                "seconds": round(time.perf_counter() - start, 6),
                "decided_at_floor": section.decided_at(),
                "products": section.products,
                "largest_product": section.largest_product,
            }
        report.extend(section)
    if args.stats:
        print(json.dumps(stats), file=sys.stderr)
    if args.json:
        print(report.to_json())
    else:
        per_equation: dict[str, list] = {}
        for check in report.checks:
            per_equation.setdefault(check.equation, []).append(check)
        for equation in sorted(per_equation):
            checks = per_equation[equation]
            bad = [c for c in checks if c.status != "pass"]
            line = f"{equation}: {len(checks) - len(bad)}/{len(checks)} pass"
            print(line if not bad else f"{line}  FIRST FAIL {bad[0].indices} witness={bad[0].witness}")
    return 0 if report.ok else 1


def _cmd_zeta(args) -> int:
    print(repr(core.partition_function(args.s, args.qmax)))
    return 0


# each command's function looks the package's functions up when it runs, so
# that a wrapper set on a module attribute is the one called
_COMMANDS = {
    "row": _cmd_row, "qmark": _cmd_qmark, "ideal": _cmd_ideal, "k0": _cmd_k0, "gen": _cmd_gen,
    "trace": _cmd_trace, "paths": _cmd_paths, "relations": _cmd_relations, "zeta": _cmd_zeta,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # out-of-range floors/depths and unreadable files are usage errors
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
