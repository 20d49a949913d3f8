"""Seeded job lists for the three workloads, and the answer checks.

A job is timed while it runs; its answer is checked only after every job of
the pass has run, so the checks never count as work.  Every check must hold
for every seed.  Where the CLI has the command, the job goes through
``cli.main(argv)`` in-process with its output captured; otherwise it calls
the module's public function.

- ``suites``: ``relations --floor N --lambda L`` at floors 4, 5 and 6.
  ``path_algebra`` does nearly all the work; ``core``, ``ideals`` and
  ``traces`` do nothing.
- ``mutation``: one representation, then seeded single sign flips, each
  run through every suite.  Checks fail, witnesses are built, generators
  are copied and E/F rebuilt per mutant.
- ``diagram``: tree rows and labels, the question mark, totient fibers,
  the zeta series, ideal level sets and their exports, trace candidates,
  and dimension-group arithmetic.  ``path_algebra`` does nothing.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("suites", "mutation", "diagram")

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text(encoding="utf-8"))

# A lambda and its inverse give the same scalars up to swapping (tau, the
# weights 1/(1+lambda), lambda/(1+lambda) and sqrt(lambda)/(1+lambda)), so
# the seed choosing between them barely moves the cost of a floor.
SQUARE_LAMBDAS = (Fraction(1, 4), Fraction(4))
NONSQUARE_LAMBDAS = (Fraction(1, 2), Fraction(2))

# size of every input, at full size and at the reduced size of the self-test
SIZES = {
    False: {
        "floors": (4, 5, 6), "mutation_floor": 5, "mutants": 8,
        "row_floor": 18, "labels": 10_000, "label_floor": 60, "qmark_pairs": 20,
        "totient": 3, "totient_q": (200, 400), "zeta_qmax": 1_000_000,
        "exports": 200, "export_depth": 60, "dots": 6, "dot_depth": 10,
        "closure_depth": 18, "closures": 1, "convergence_depth": 30,
        "trace_depth": 16, "alpha_depth": 16, "k0_level": 14, "lifts": 12, "lift_to": 12, "gen_terms": 4096,
    },
    True: {
        "floors": (4, 5), "mutation_floor": 4, "mutants": 2,
        "row_floor": 8, "labels": 200, "label_floor": 20, "qmark_pairs": 3,
        "totient": 1, "totient_q": (20, 40), "zeta_qmax": 1000,
        "exports": 6, "export_depth": 12, "dots": 2, "dot_depth": 5,
        "closure_depth": 6, "closures": 1, "convergence_depth": 8,
        "trace_depth": 6, "alpha_depth": 6, "k0_level": 4, "lifts": 2, "lift_to": 6, "gen_terms": 64,
    },
}


@dataclass
class Job:
    name: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the answer is right, else why not


def cli_call(fb, argv: list[str]) -> tuple[int, str, str]:
    """Run ``cli.main(argv)`` in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = fb.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def build(workload: str, fb, seed: int, small: bool, scratch: Path) -> list[Job]:
    """The job list of one pass.  Inputs depend only on (workload, seed, small)."""
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[small]
    if workload == "suites":
        return _suites(fb, rng, size)
    if workload == "mutation":
        return _mutation(fb, rng, size, seed)
    if workload == "diagram":
        return _diagram(fb, rng, size, scratch)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# suites


def _suites(fb, rng: random.Random, size: dict) -> list[Job]:
    *lower, top = size["floors"]
    plan = [(n, lam) for n in lower for lam in (rng.choice(SQUARE_LAMBDAS), rng.choice(NONSQUARE_LAMBDAS))]
    plan.append((top, rng.choice(SQUARE_LAMBDAS + NONSQUARE_LAMBDAS)))
    return [_relations_job(fb, n, lam) for n, lam in plan]


def _relations_job(fb, floor: int, lam: Fraction) -> Job:
    argv = ["relations", "--floor", str(floor), "--lambda", str(lam)]

    def check(answer) -> str | None:
        code, out, _ = answer
        if code != 0:
            return f"exit code {code}"
        if out != GOLDEN[str(floor)]:
            return "summary differs from the floor's golden summary"
        return None

    return Job(f"relations N{floor} lambda={lam}", f"N{floor}", lambda: cli_call(fb, argv), check)


# ---------------------------------------------------------------------------
# mutation


def _mutation(fb, rng: random.Random, size: dict, seed: int) -> list[Job]:
    floor = size["mutation_floor"]
    lam = rng.choice(SQUARE_LAMBDAS + NONSQUARE_LAMBDAS)
    state: dict[str, Any] = {}

    def build_rep():
        state["rep"] = fb.path_algebra.Representation(floor, lam)
        return state["rep"]

    def check_rep(rep) -> str | None:
        return None if rep.floor == floor and rep.has("v", floor - 1) else "representation is incomplete"

    jobs = [Job(f"representation N{floor} lambda={lam}", "rep", build_rep, check_rep)]
    for i in range(size["mutants"]):
        jobs.append(_mutant_job(fb, state, floor, lam, f"mutation:{seed}:{i}"))
    return jobs


def _mutant_job(fb, state: dict, floor: int, lam: Fraction, rng_seed: str) -> Job:
    def run():
        mutated, info = fb.path_algebra.random_sign_mutation(state["rep"], random.Random(rng_seed))
        report = fb.path_algebra.run_all_suites(floor, lam, mutated)
        failures = report.failures()
        first = (failures[0].equation, failures[0].indices) if failures else None
        return info, report.ok, first

    def check(answer) -> str | None:
        info, ok, first = answer
        kind, n = info["kind"], info["n"]
        invisible = gauge_equivalent(state["rep"], kind, n, (info["row"], info["col"]))
        if ok != invisible:
            return f"{kind}_{n} flip at {(info['row'], info['col'])}: suites say ok={ok}, gauge oracle says {invisible}"
        if kind in "efg" and first != ("R1", {"kind": kind, "n": n}):
            return f"diagonal flip of {kind}_{n} first failed {first}, not its own R1 projection check"
        return None

    return Job(f"mutant {rng_seed}", "mutant", run, check)


def gauge_equivalent(rep, kind: str, n: int, entry: tuple[int, int]) -> bool:
    """Whether negating ``entry`` of generator kind_n is a change of basis.

    A diagonal sign matrix D (D = D^T = D^-1) maps every relation of the
    suites to itself: products, sums, scalars and adjoints all commute with
    X -> DXD, and DXD = X for the diagonal generators.  So a flip that some
    D realises on all generators at once is invisible to every check, and
    any other flip should be caught.  D exists iff the parity constraints
    d_i d_j = sign, one per off-diagonal generator entry (i, j), have a
    solution; union-find with parities decides it.  Only entry positions are
    read, never scalar values.
    """
    if entry[0] == entry[1]:
        return False
    parent: dict[int, int] = {}
    parity: dict[int, int] = {}  # parity of a node relative to its parent

    def find(x: int) -> tuple[int, int]:
        path = []
        while parent.get(x, x) != x:
            path.append(x)
            x = parent[x]
        root, acc = x, 0
        for node in reversed(path):  # compress, nearest the root first
            acc ^= parity[node]
            parent[node], parity[node] = root, acc
        return root, parity[path[0]] if path else 0

    for k in "vw":
        for m in range(rep.floor + 1):
            if not rep.has(k, m):
                continue
            for i, j in rep.gen(k, m).entries:
                if i == j:
                    continue
                want = 1 if (k, m, (i, j)) == (kind, n, entry) else 0
                (ri, pi), (rj, pj) = find(i), find(j)
                if ri == rj:
                    if pi ^ pj != want:
                        return False
                else:
                    parent[ri], parity[ri] = rj, pi ^ pj ^ want
    return True


# ---------------------------------------------------------------------------
# diagram


def _diagram(fb, rng: random.Random, size: dict, scratch: Path) -> list[Job]:
    jobs: list[Job] = []
    jobs.append(_row_job(fb, rng, size["row_floor"]))
    jobs.append(_labels_job(fb, rng, size["labels"], size["label_floor"]))
    for _ in range(size["qmark_pairs"]):
        jobs.append(_qmark_job(fb, _rational(rng, 1000)))
    lo, hi = size["totient_q"]
    for q in rng.sample(range(lo, hi + 1), size["totient"]):
        jobs.append(_totient_job(fb, q))
    jobs.append(_zeta_job(fb, size["zeta_qmax"]))

    depth = size["export_depth"]
    for i in range(size["exports"]):
        if i % 2:
            theta, variant = _rational(rng, 10**6), rng.choice(("plain", "plus", "minus"))
            jobs.append(_export_job(fb, str(theta), theta, variant, depth, i % 4 == 1))
        else:
            terms = _cf_prefix(rng, depth + 5)
            jobs.append(_export_job(fb, "cf:" + ",".join(map(str, terms)), fb.core.cf_decode(terms), "plain", depth, i % 4 == 0))
    for _ in range(size["dots"]):
        jobs.append(_dot_job(fb, _rational(rng, 200), size["dot_depth"]))
    for _ in range(size["closures"]):
        jobs.append(_closure_job(fb, _cf_prefix(rng, size["closure_depth"] + 5), size["closure_depth"]))
    jobs.append(_convergence_job(fb, _cf_prefix(rng, 2 * size["convergence_depth"]), size["convergence_depth"]))

    trace_depth = size["trace_depth"]
    ratio = rng.choice(TRACE_RATIOS)
    jobs.append(_trace_job(fb, scratch / "geometric.json", {"kind": "geometric", "ratio": str(ratio)},
                           trace_depth, ratio <= Fraction(1, 3)))
    table, valid = _table_candidate(rng, trace_depth)
    jobs.append(_trace_job(fb, scratch / "table.json", table, trace_depth, valid))
    jobs.append(_alpha_job(fb, rng, rng.choice([r for r in TRACE_RATIOS if r <= Fraction(1, 3)]), size["alpha_depth"]))

    jobs.append(_k0_identity_job(fb, size["k0_level"]))
    for _ in range(size["lifts"]):
        jobs.append(_lift_job(fb, rng, size["lift_to"]))
        jobs.append(_add_job(fb, rng))
    jobs.append(_gen_job(fb, size["gen_terms"]))
    return jobs


# geometric ratios on both sides of the validity threshold 1/3
TRACE_RATIOS = tuple(Fraction(p, q) for p, q in ((1, 4), (1, 5), (2, 7), (3, 10), (1, 3), (2, 5), (3, 8), (3, 7)))


def _rational(rng: random.Random, qmax: int) -> Fraction:
    while True:
        q = rng.randrange(2, qmax + 1)
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def _cf_prefix(rng: random.Random, min_sum: int) -> tuple[int, ...]:
    """CF digits whose sum exceeds min_sum, so the prefix pins every floor
    below it and the irrational it stands for never surfaces as a label."""
    terms: list[int] = []
    while sum(terms) <= min_sum:
        terms.append(rng.choice((1, 1, 1, 2, 2, 3, 4)))
    return tuple(terms)


def _cli_ok(answer) -> str | None:
    code, _, err = answer
    return None if code == 0 else f"exit code {code}: {err.strip()[:200]}"


def _row_job(fb, rng: random.Random, floor: int) -> Job:
    samples = [rng.randrange(2**floor + 1) for _ in range(20)]

    def check(answer) -> str | None:
        bad = _cli_ok(answer)
        if bad:
            return bad
        tokens = answer[1].split()
        pairs = [(int(p), int(q or 1)) for p, _, q in (t.partition("/") for t in tokens)]
        if len(pairs) != 2**floor + 1 or pairs[0] != (0, 1) or pairs[-1] != (1, 1):
            return "row has the wrong size or endpoints"
        # consecutive labels are Farey neighbours: increasing, with determinant 1
        if any(c * b - a * d != 1 for (a, b), (c, d) in zip(pairs, pairs[1:])):
            return "consecutive row entries are not increasing Farey neighbours"
        if any(Fraction(tokens[k]) != fb.core.label(floor, k) for k in samples):
            return "row disagrees with label at a sampled position"
        return None

    return Job(f"row {floor}", "core", lambda: cli_call(fb, ["row", "--floor", str(floor)]), check)


def _labels_job(fb, rng: random.Random, count: int, floor: int) -> Job:
    ks = [rng.randrange(2**floor + 1) for _ in range(count)]

    def check(labels) -> str | None:
        if len(labels) != count:
            return "labels missing"
        # every label against the question mark, at a tenth of the cost: one in ten
        for k, x in list(zip(ks, labels))[::10]:
            if fb.core.question_mark(x) * 2**floor != k:
                return f"question_mark(label({floor}, {k})) * 2**{floor} != {k}"
        return None

    return Job(f"label x{count} at floor {floor}", "core", lambda: [fb.core.label(floor, k) for k in ks], check)


def _qmark_job(fb, x: Fraction) -> Job:
    def run():
        code, out, err = cli_call(fb, ["qmark", "eval", str(x)])
        if code != 0:
            return code, out, err
        return cli_call(fb, ["qmark", "inv", out.strip()]) + (out.strip(),)

    def check(answer) -> str | None:
        bad = _cli_ok(answer[:3])
        if bad:
            return bad
        dyadic = Fraction(answer[3])
        if dyadic.denominator & (dyadic.denominator - 1):
            return f"?({x}) = {dyadic} is not dyadic"
        return None if Fraction(answer[1].strip()) == x else f"?^-1(?({x})) = {answer[1].strip()}"

    return Job(f"qmark round trip {x}", "core", run, check)


def _totient_job(fb, q: int) -> Job:
    want = sum(1 for p in range(1, q) if math.gcd(p, q) == 1)
    return Job(f"totient_fiber({q})", "core", lambda: fb.core.totient_fiber(q),
               lambda got: None if got == want else f"totient_fiber({q}) = {got}, phi = {want}")


ZETA2_OVER_ZETA3 = (math.pi**2 / 6) / 1.2020569031595942853997


def _zeta_job(fb, qmax: int) -> Job:
    def check(answer) -> str | None:
        bad = _cli_ok(answer)
        if bad:
            return bad
        gap = ZETA2_OVER_ZETA3 - float(answer[1])
        # partial sums rise to the limit; the tail is below sum_{q > qmax} q**-2 < 1/qmax
        return None if -1e-9 <= gap <= 1 / qmax + 1e-9 else f"zeta series off its limit by {gap}"

    return Job(f"zeta s=3 qmax={qmax}", "core", lambda: cli_call(fb, ["zeta", "--s", "3", "--qmax", str(qmax)]), check)


def _export_job(fb, theta_text: str, theta: Fraction, variant: str, depth: int, admissibility: bool) -> Job:
    argv = ["ideal", "--theta", theta_text, "--variant", variant, "--depth", str(depth)]

    def check(answer) -> str | None:
        bad = _cli_ok(answer)
        if bad:
            return bad
        payload = json.loads(answer[1])
        retained = tuple(tuple(idx) for idx in payload["retained"])
        if payload["depth"] != depth or len(retained) != depth + 1:
            return "wrong depth"
        if admissibility:
            report = fb.ideals.classify_admissible(fb.ideals.LevelSet(depth, retained))
            if not report.admissible:
                return f"not admissible: {report.reason}"
        return _brackets(fb, theta, variant, retained, payload["labels"])

    return Job(f"ideal {theta_text[:24]} {variant} depth {depth}", "ideals", lambda: cli_call(fb, argv), check)


def _brackets(fb, theta: Fraction, variant: str, retained, labels) -> str | None:
    """Each floor retains the pair straddling theta until theta surfaces as
    a label, then theta's column (plain) or it and a neighbour (plus/minus)."""
    for n, (idx, texts) in enumerate(zip(retained, labels)):
        values = [Fraction(t) for t in texts]
        if len(values) != len(idx):
            return f"floor {n}: {len(values)} labels for {len(idx)} indices"
        if theta in values and (variant == "plain" or len(values) == 2):
            want = 1 if variant == "minus" and len(values) == 2 else 0
            if values.index(theta) != want:
                return f"floor {n}: theta sits at the wrong end of {texts}"
        elif not (len(values) == 2 and values[0] < theta < values[1]):
            return f"floor {n}: {texts} does not bracket theta"
    n = len(retained) - 1
    if [Fraction(t) for t in labels[-1]] != [fb.core.label(n, k) for k in retained[-1]]:
        return f"floor {n}: labels do not match the indices"
    return None


def _dot_job(fb, theta: Fraction, depth: int) -> Job:
    argv = ["ideal", "--theta", str(theta), "--depth", str(depth), "--format", "dot"]

    def check(answer) -> str | None:
        bad = _cli_ok(answer)
        if bad:
            return bad
        lines = answer[1].splitlines()
        vertices = [line for line in lines if "shape=" in line]
        filled = [line for line in vertices if "filled" in line]
        retained = fb.ideals.quotient_levels(fb.ideals.IdealSpec(theta), depth).retained
        if len(vertices) != sum(2**n + 1 for n in range(depth + 1)):
            return "dot export misses vertices"
        return None if len(filled) == sum(map(len, retained)) else "dot export fills the wrong vertices"

    return Job(f"ideal dot {theta} depth {depth}", "ideals", lambda: cli_call(fb, argv), check)


def _closure_job(fb, terms: tuple[int, ...], depth: int) -> Job:
    def run():
        spec = fb.ideals.IdealSpec(fb.ideals.CFStream(iter(terms)))
        levels = fb.ideals.ideal_levels(spec, depth)
        return levels, fb.ideals.is_hereditary(levels), fb.ideals.is_directed(levels)

    def check(answer) -> str | None:
        levels, hereditary, directed = answer
        if not (hereditary and directed):
            return f"ideal side hereditary={hereditary} directed={directed}"
        quotient = fb.ideals.quotient_levels(fb.ideals.IdealSpec(fb.ideals.CFStream(iter(terms))), depth)
        for n, (ideal, kept) in enumerate(zip(levels.retained, quotient.retained)):
            if set(ideal) & set(kept) or len(ideal) + len(kept) != 2**n + 1:
                return f"floor {n}: ideal and quotient sides do not partition the floor"
        return None

    return Job(f"ideal closure depth {depth}", "ideals", run, check)


def _convergence_job(fb, terms: tuple[int, ...], depth: int) -> Job:
    convergents = fb.core.cf_convergents(terms)

    def run():
        return fb.ideals.convergence_check(convergents, fb.ideals.CFStream(iter(terms)), depth)

    return Job(f"convergence depth {depth}", "ideals", run,
               lambda report: None if report.converged else "convergents do not converge in the ideal topology")


def _table_candidate(rng: random.Random, depth: int) -> tuple[dict, bool]:
    """Truncated geometric table: valid when its ratio is <= 1/3, since
    truncation only lowers branch masses.  Zeroing one vertex whose branch
    keeps positive mass makes it invalid."""
    ratio = rng.choice([r for r in TRACE_RATIOS if r <= Fraction(1, 3)])
    top = depth // 2
    entries = [[n, k, str(ratio ** (n + 1))] for n in range(top + 1) for k in range(1, 2**n + 1, 2)]
    if rng.random() < 0.5:
        return {"kind": "table", "entries": entries, "default": "0"}, True
    # (n, k) with n < top has members of its branch set at floor n + 1 <= top
    victim = rng.randrange(top)
    entries = [e for e in entries if e[0] != victim or e[1] != 1]
    return {"kind": "table", "entries": entries, "default": "0"}, False


def _trace_job(fb, spec_path: Path, candidate: dict, depth: int, valid: bool) -> Job:
    spec_path.write_text(json.dumps(candidate), encoding="utf-8")
    argv = ["trace", "check", "--spec", str(spec_path), "--depth", str(depth)]

    def check(answer) -> str | None:
        code, out, _ = answer
        want = (0, f"valid (exact, depth {depth},") if valid else (1, "INVALID (exact)")
        return None if code == want[0] and out.startswith(want[1]) else f"exit {code}: {out.strip()[:120]}"

    return Job(f"trace check {candidate['kind']} depth {depth}", "traces", lambda: cli_call(fb, argv), check)


def _alpha_job(fb, rng: random.Random, ratio: Fraction, depth: int) -> Job:
    sampled = [(n, rng.randrange(2**n + 1)) for n in (rng.randrange(depth) for _ in range(1000))]

    def check(alpha) -> str | None:
        if len(alpha) != 1 + sum(2**n + 1 for n in range(depth + 1)):
            return "alpha misses vertices"
        for n in range(depth + 1):
            power = ratio ** (n + 1)
            if any(alpha[(n, k)] != power for k in range(1, 2**n + 1, 2)):
                return f"alpha differs from phi at floor {n}"
        for n, m in sampled:
            below = [alpha[(n + 1, k)] for k in (2 * m - 1, 2 * m, 2 * m + 1) if 0 <= k <= 2 ** (n + 1)]
            if alpha[(n, m)] != sum(below):
                return f"three-term recursion fails at ({n}, {m})"
        return None

    def run():
        return fb.traces.alpha_from_phi(fb.traces.geometric_candidate(ratio), depth)

    return Job(f"alpha_from_phi ratio={ratio} depth {depth}", "traces", run, check)


def _k0_identity_job(fb, level: int) -> Job:
    def check(answer) -> str | None:
        bad = _cli_ok(answer)
        if bad:
            return bad
        want = "".join(f"level {n}: unit decomposition pass\n" for n in range(level + 1))
        return None if answer[1] == want else "unit decomposition fails"

    return Job(f"k0 identity {level}", "dimension_group",
               lambda: cli_call(fb, ["k0", "identity", "--max-level", str(level)]), check)


def _lift(level: int, coeffs: list[int], to: int) -> list[int]:
    """Reference connecting map: d[2k] = c[k], d[2k+1] = c[k] + c[k+1]."""
    for _ in range(to - level):
        coeffs = [x for k, c in enumerate(coeffs) for x in (c, c + (coeffs[k + 1] if k + 1 < len(coeffs) else 0))]
    return coeffs


def _poly(rng: random.Random) -> tuple[int, list[int]]:
    level = rng.randrange(1, 5)
    return level, [rng.randrange(-9, 10) for _ in range(2**level)]


def _poly_text(level: int, coeffs: list[int]) -> str:
    return f"{level}:{','.join(map(str, coeffs))}"


def _lift_job(fb, rng: random.Random, to: int) -> Job:
    level, coeffs = _poly(rng)
    want = _poly_text(to, _lift(level, coeffs, to)) + "\n"
    argv = ["k0", "lift", _poly_text(level, coeffs), "--to", str(to)]
    return Job(f"k0 lift {level}->{to}", "dimension_group", lambda: cli_call(fb, argv),
               lambda answer: _cli_ok(answer) or (None if answer[1] == want else "lift differs from the connecting map"))


def _add_job(fb, rng: random.Random) -> Job:
    (la, a), (lb, b) = _poly(rng), _poly(rng)
    top = max(la, lb)
    total = [x + y for x, y in zip(_lift(la, a, top), _lift(lb, b, top))]
    want = _poly_text(top, total) + "\n"
    argv = ["k0", "add", _poly_text(la, a), _poly_text(lb, b)]
    return Job(f"k0 add {la}+{lb}", "dimension_group", lambda: cli_call(fb, argv),
               lambda answer: _cli_ok(answer) or (None if answer[1] == want else "sum differs from the lifted sum"))


def _gen_job(fb, terms: int) -> Job:
    # floor-by-floor denominators q(n, 0..2**n - 1), by the mediant rule on denominators
    want, row = [], [1, 1]
    while len(want) < terms:
        want += row[:-1]
        row = [x for a, b in zip(row, row[1:]) for x in (a, a + b)] + [1]
    want_text = " ".join(map(str, want[:terms])) + "\n"
    return Job(f"gen {terms}", "dimension_group", lambda: cli_call(fb, ["gen", "--terms", str(terms)]),
               lambda answer: _cli_ok(answer) or (None if answer[1] == want_text else "coefficients differ from the denominators"))
