"""Print the behaviour of 150 seeded sign-flip mutants as JSON.

For floors 4 and 5, lambda 2, 1/4 and 2/3, and seeds 0-24, one parent
representation per (floor, lambda) draws its mutants in seed order through
``random_sign_mutation``, and each mutant runs every suite.  Per mutant the
output records the drawn flip, the sha256 of the report's JSON, the products
multiplied out, the most nonzeros in one product and the checks decided at
each floor.  ``tests/golden_mutants.json`` holds the committed output:

    PYTHONPATH=src python tests/golden_mutants.py | diff - tests/golden_mutants.json
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from fareybratteli.path_algebra import Representation, random_sign_mutation, run_all_suites

FLOORS = (4, 5)
LAMBDAS = (Fraction(2), Fraction(1, 4), Fraction(2, 3))
SEEDS = range(25)


def mutant_records() -> list[dict]:
    records = []
    for floor in FLOORS:
        for lam in LAMBDAS:
            rep = Representation(floor, lam)
            for seed in SEEDS:
                mutated, flip = random_sign_mutation(rep, random.Random(seed))
                report = run_all_suites(floor, lam, mutated)
                records.append({
                    "floor": floor,
                    "lambda": str(lam),
                    "seed": seed,
                    "flip": flip,
                    "report_sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
                    "products": report.products,
                    "largest_product": report.largest_product,
                    "decided_at": report.decided_at(),
                })
    return records


def golden_text() -> str:
    """The committed file's text: one record per line."""
    return "[\n" + ",\n".join(json.dumps(record) for record in mutant_records()) + "\n]\n"


if __name__ == "__main__":
    print(golden_text(), end="")
