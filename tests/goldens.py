"""Every committed output of the command line, listed once.

An entry is a command (the arguments after ``farey-bratteli``), the exit
code it must end with, the stream compared, and where the expected text is
read from: a whole file under ``tests/``, one line of
``tests/golden_stats_floors_4_to_6.txt``, or a key of the benchmark's
``bench/golden.json``.  ``test_command_matches_its_golden`` in
``tests/test_cli.py`` runs each entry in a fresh interpreter and compares.
A ``relations --stats`` entry compares stderr with every section's
``seconds`` removed (``stats_without_seconds``); any other entry compares
stdout, and its stderr must be empty.  A file whose name ends in
``.sha256`` holds the SHA-256 digest of stdout, for an output too large to
commit.  An entry with ``peak_mb`` also bounds the peak RSS of its process,
and one with ``cpu_s`` its CPU seconds (user plus system).
An argument named in ``TRACE_SPECS`` stands for that trace candidate,
written to a file before the command runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import NamedTuple

TESTS = Path(__file__).parent
DIAGRAM = TESTS / "golden_diagram"
STATS_FLOORS_4_TO_6 = TESTS / "golden_stats_floors_4_to_6.txt"


def stats_without_seconds(text: str) -> str:
    """The stats in ``text`` without the seconds of each section, one JSON line."""
    stats = json.loads(text)
    for section in stats.values():
        section.pop("seconds")
    return json.dumps(stats)


class Golden(NamedTuple):
    argv: tuple[str, ...]
    code: int
    path: Path
    part: int | str | None = None  # a line index of the file, a key of its JSON object, or the whole file
    stats: bool = False  # compare stderr without seconds instead of stdout
    peak_mb: float | None = None  # the most peak RSS the command may reach, in MB
    cpu_s: float | None = None  # the most CPU seconds the command may take

    @property
    def id(self) -> str:
        return " ".join(self.argv)

    @property
    def source(self) -> str:
        place = self.path.relative_to(TESTS.parent).as_posix()
        if isinstance(self.part, int):
            return f"line {self.part + 1} of {place}"
        return place if self.part is None else f"key {self.part!r} of {place}"

    def expected(self) -> str:
        text = self.path.read_text(encoding="utf-8")
        if isinstance(self.part, int):
            return text.splitlines(keepends=True)[self.part]
        return text if self.part is None else json.loads(text)[self.part]

    def compared(self, out: str, err: str) -> str:
        if self.stats:
            return stats_without_seconds(err) + "\n"
        if self.path.suffix == ".sha256":
            return hashlib.sha256(out.encode("utf-8")).hexdigest() + "\n"
        return out


# the trace candidates of the goldens: two geometric ones, the geometric 1/4
# weights of floors 0-8 as a table with default 0, that table with (3, 1)
# zeroed, and one entry on MAX_TABLE_FLOOR
_TABLE_ENTRIES = [[n, k, f"1/{4 ** (n + 1)}"] for n in range(9) for k in range(1, 2**n + 1, 2)]
TRACE_SPECS = {
    "quarter.json": {"kind": "geometric", "ratio": "1/4"},
    "half.json": {"kind": "geometric", "ratio": "1/2"},
    "table.json": {"kind": "table", "entries": _TABLE_ENTRIES, "default": "0"},
    "table_zeroed.json": {
        "kind": "table",
        "entries": [[n, k, "0" if (n, k) == (3, 1) else w] for n, k, w in _TABLE_ENTRIES],
        "default": "0",
    },
    "deepest_entry.json": {"kind": "table", "entries": [[40, 1, "1/2"]], "default": "0"},
}


def _relations(floor: int, lam: str, *flags: str) -> tuple[str, ...]:
    return ("relations", "--floor", str(floor), "--lambda", lam, *flags)


def _diagram(name: str, code: int, *argv: str, peak_mb: float | None = None, cpu_s: float | None = None) -> Golden:
    return Golden(argv, code, DIAGRAM / name, peak_mb=peak_mb, cpu_s=cpu_s)


GOLDENS = [
    # the summaries do not depend on lambda; 2/3 is a non-square one
    *(Golden(_relations(7, lam), 0, TESTS.parent / "bench" / "golden.json", "7") for lam in ("1/4", "2")),
    *(Golden(_relations(8, lam), 0, TESTS / "golden_floor8.txt") for lam in ("1/4", "2")),
    # each evaluation keeps every node it builds until it returns; the bound
    # is what that may cost at the largest floor (about 21.5 MB today, with
    # no floor-9 path enumerated)
    Golden(_relations(9, "1/4"), 0, TESTS / "golden_floor9.txt", peak_mb=64),
    *(Golden(_relations(9, lam), 0, TESTS / "golden_floor9.txt") for lam in ("2", "2/3")),
    # the report as written before the suites became one relation table
    Golden(_relations(6, "2/3", "--json"), 0, TESTS / "golden_floor6_lambda_2_3.json"),
    # floors 4-6 are the floors the suites benchmark runs; the counts were
    # written before the tables became expansions of their index-2 templates
    *(
        Golden(_relations(floor, lam, "--stats"), 0, STATS_FLOORS_4_TO_6, line, stats=True)
        for line, (floor, lam) in enumerate(itertools.product((4, 5, 6), ("1/4", "2/3")))
    ),
    # a commutation row decided by its products instead of its window
    # certificates leaves every report as it is; only these counts move
    Golden(_relations(7, "2/3", "--stats"), 0, TESTS / "golden_floor7_stats.json", stats=True),
    # at the top floor, rows at index 3 or more take their translate's
    # verdict and their letters their translate's certificate
    Golden(_relations(9, "2/3", "--stats"), 0, TESTS / "golden_floor9_stats.json", stats=True),
    # the diagram outputs as written before the trace kernels shared work
    # between equal values and the exports labelled each floor from the one above
    _diagram("ideal_cf_depth60.json", 0, "ideal", "--theta", "cf:2,1,1,3,1,4,1,5,9,2,6,5,3,5,8,9", "--depth", "60"),
    *(
        _diagram(f"ideal_97_355_{variant}_depth60.json", 0, "ideal", "--theta", "97/355", "--variant", variant, "--depth", "60")
        for variant in ("plain", "plus", "minus")
    ),
    _diagram("ideal_3_7_plus_depth10.dot", 0, "ideal", "--theta", "3/7", "--variant", "plus", "--depth", "10", "--format", "dot"),
    _diagram("trace_geometric_1_4_depth16.txt", 0, "trace", "check", "--spec", "quarter.json", "--depth", "16"),
    _diagram("trace_geometric_1_2_depth16.txt", 1, "trace", "check", "--spec", "half.json", "--depth", "16"),
    _diagram("trace_table_depth16_valid.txt", 0, "trace", "check", "--spec", "table.json", "--depth", "16"),
    _diagram("trace_table_depth16_invalid.txt", 1, "trace", "check", "--spec", "table_zeroed.json", "--depth", "16"),
    # MAX_DEPTH under an entry on MAX_TABLE_FLOOR: each tail reads the entries
    # its vertex owns (about 0.5 s today; a walk of both branches of every
    # vertex down to floor 40 took 46-50 s), and the rows are a view over one
    # phi and one mass column per floor, each floor of one repeated weight kept
    # as that weight (about 26 MB today; a tuple of 524289 rows took 134 MB)
    _diagram("trace_table_floor40_depth20.txt", 0, "trace", "check", "--spec", "deepest_entry.json", "--depth", "20",
             peak_mb=64, cpu_s=4),
    # written by Python 3.11, whose sum adds floats left to right (see
    # test_sum_adds_floats_left_to_right in test_core.py); 10**7 is MAX_ZETA_QMAX
    _diagram("zeta_s3_qmax1000000.txt", 0, "zeta", "--s", "3", "--qmax", "1000000"),
    # the series keeps phi(q) for odd q <= qmax / 2 only and sums every q in
    # blocks (about 157 MB today; phi(0..qmax / 2) took 201 MB, all qmax + 1
    # totients 350 MB)
    _diagram("zeta_s3_qmax10000000.txt", 0, "zeta", "--s", "3", "--qmax", "10000000", peak_mb=192),
    # written before the K0 kernels ran on slices of flat tuples: the unit
    # decomposition at every level MAX_UNIT_LEVEL allows, a lift to
    # MAX_LIFT_LEVEL, a sum across levels and the generating function
    _diagram("k0_identity_max14.txt", 0, "k0", "identity", "--max-level", "14"),
    _diagram("k0_lift_3_to20.txt", 0, "k0", "lift", "3:1,-2,0,5,7,0,1,1", "--to", "20"),
    _diagram("k0_add_2_4.txt", 0, "k0", "add", "2:3,-1,0,2", "4:1,0,-5,2,0,0,7,1,1,-3,0,0,2,9,0,4"),
    _diagram("gen_terms16384.txt", 0, "gen", "--terms", "16384"),
    # MAX_ROW_FLOOR, 9.9 MB of stdout: written in chunks off the numerator list
    # alone (about 70 MB today; whole lists and the joined line took 135 MB)
    _diagram("row_floor20.sha256", 0, "row", "--floor", "20", peak_mb=96),
]
