"""The path model: generators over Q(sqrt(lam)), relation suites, braiding,
and what mutation testing can and cannot see.

Run:  python3 demos/05_projection_relations.py
"""

from fractions import Fraction

from fareybratteli.core import row
from fareybratteli.path_algebra import (
    Representation,
    enumerate_paths,
    path_context,
    run_all_suites,
    verify_braiding_suite,
    verify_relation_suite,
    yang_baxter_check,
)

F = Fraction

print("Monotone paths from the root; counts reproduce the block sizes:")
for n in (2, 5, 7):
    print(f"  floor {n}: {len(enumerate_paths(n))} paths = 3^{n}+1")
ctx = path_context(2)
print(f"  endpoint blocks at floor 2: { {k: ctx.endpoint.count(k) for k in range(5)} }"
      f"  (denominators {[x.denominator for x in row(2)]})")

lam = F(1, 4)
rep = Representation(5, lam)
e1 = rep.tl("E", 1)
print(f"\nOperators are (A + sqrt({lam})*B)/d with integer A, B and d; E_1 has d = {e1.d}")
print(f"and {len(e1.A)} + {len(e1.B)} nonzero entries in A and B; tau = lam/(1+lam)^2 = {rep.tau()}")

base = verify_relation_suite(5, lam, rep)
print(f"relation suite at N=5: {len(base.checks)} checks, ok = {base.ok}")

yb = yang_baxter_check(5, lam, rep=rep)
print(f"Yang-Baxter (LHS - RHS = st(a^2 - b^2) + st(s+t)(aba - bab), both coefficients checked): ok = {yb.ok}")

braid = verify_braiding_suite(5, lam, rep)
print(f"braiding suite (projections, triples, dominance): {len(braid.checks)} checks, ok = {braid.ok}")

print("\nEach generator lives at its home floor (n for e/f/g_n, n+1 for v/w_n and E/F_n);")
print("the tail embedding X -> X (x) 1 carries a floor-M identity to floor N, so each")
print(f"check is decided at the highest home floor among its operators: {base.decided_at()}")

print("\nMutation testing: a sign flip in a diagonal generator always trips (R1).")
entry = sorted(rep.gen("g", 2).entries)[0]
broken = rep.with_sign_flip("g", 2, entry)
print(f"  g_2 flipped at {entry}: suites ok = {run_all_suites(5, lam, broken).ok}")

print("\nFlips of the diamond isometries are gauge moves: the flipped family still")
print("satisfies every printed relation verbatim (v'*v' == v*v).  They are only")
print("caught when the flipped path crosses another diamond, via the far-floor")
print("commutators [v'_s, x_r], |r - s| >= 2:")
v1 = rep.gen("v", 1)
crossing = next(
    (i, j) for (i, j) in sorted(v1.entries)
    if rep.ctx.paths[i][3] == 2 * rep.ctx.paths[i][2] and rep.ctx.paths[i][4] == 4 * rep.ctx.paths[i][2] + 1
)
caught = rep.with_sign_flip("v", 1, crossing)
print(f"  cross-pattern flip of v_1 at {crossing}: suites ok = {run_all_suites(5, lam, caught).ok}")
invisible_entry = next(
    (i, j) for (i, j) in sorted(v1.entries)
    if all(rep.ctx.paths[i][n + 1] == 2 * rep.ctx.paths[i][n] for n in range(2, 5))
)
invisible = rep.with_sign_flip("v", 1, invisible_entry)
print(f"  all-vertical tail flip of v_1 at {invisible_entry}: suites ok = {run_all_suites(5, lam, invisible).ok}"
      "  <- provably undetectable")
