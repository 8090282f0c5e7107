"""The benchmark's three workloads: their inputs, their operations and checks.

Each workload is built from a size ("full" or "tiny") and a seed.  `setup`
does everything that is not timed; `run` executes one pass and returns one
record per operation: (kind, seconds, ok).  An operation whose output is
wrong, whose command exits nonzero or which raises counts as failed and the
pass goes on.

Why these workloads:

* enum: `betti T --method enum` for four types.  Nearly all the time is the
  level sweep (flats, the linalg kernel, rootsys); nothing downstream of
  the sweep runs.
* cli: the user commands named in the ROADMAP, each rebuilding its lattice
  as the program does today, with a cache write beside a cache read.
* queries: a thousand small seeded queries against a lattice built during
  set-up, so the sweep does no timed work and small exact solves, closures,
  cup products and orbit walks dominate.

enum and cli use types smaller than E6 so that each operation takes about a
second or less and repeats several times in a run; see README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

SIZES = {
    "full": {
        "enum_types": ["A6", "B5", "D5", "F4"],
        "cli_lattice": "B5",
        "cli_cup": "B4",
        "cli_verify": ["D4"],
        "query_type": "D6",
        "queries": 3000,
        "passes": {"enum": 1, "cli": 1, "queries": 2},
        "pool_type": "E6",
    },
    "tiny": {
        "enum_types": ["A3", "B3", "D4"],
        "cli_lattice": "B3",
        "cli_cup": "A3",
        "cli_verify": ["A3"],
        "query_type": "B3",
        "queries": 200,
        "passes": {"enum": 2, "cli": 2, "queries": 2},
        "pool_type": "D4",
    },
}

# Weyl group orders and positive-root counts, for checks that must not rely
# on the program's own tables.
WEYL_ORDERS = {"D6": 23040, "B3": 48}


def positive_root_count(family: str, r: int) -> int:
    return {
        "A": r * (r + 1) // 2,
        "B": r * r,
        "C": r * r,
        "D": r * (r - 1),
        "E": {6: 36, 7: 63, 8: 120}.get(r, 0),
        "F": 24,
        "G": 6,
    }[family]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one command through coxstrata.cli.main, capturing its stdout."""
    from coxstrata import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# A calibrate.Clock set by the worker for untraced runs, sampled before each
# operation; None in traced runs.
CLOCK = None


def _timed(kind: str, op, check) -> tuple[str, float, bool]:
    """Time op(); then check its result outside the timed region."""
    if CLOCK is not None:
        CLOCK.before_op()
    start = time.perf_counter()
    try:
        result = op()
    except Exception:
        traceback.print_exc()
        return kind, time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    try:
        ok = bool(check(result))
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"perfbench: {kind} gave a wrong result", file=sys.stderr)
    return kind, elapsed, ok


def _fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _random_functional(rng: random.Random, dim: int) -> list[Fraction]:
    return [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(dim)]


def _stratified(rng: random.Random, flats, k: int) -> list:
    """k flats, each (rank, root count) class getting its share of k."""
    classes: dict[tuple[int, int], list] = {}
    for f in flats:
        classes.setdefault((f.rank, f.mask.bit_count()), []).append(f)
    total = len(flats)
    quota = {key: k * len(g) // total for key, g in classes.items()}
    by_remainder = sorted(classes, key=lambda key: (-(k * len(classes[key]) % total), key))
    for key in by_remainder[: k - sum(quota.values())]:
        quota[key] += 1
    picks = [rng.choice(classes[key]) for key in sorted(classes) for _ in range(quota[key])]
    rng.shuffle(picks)
    return picks


def _linked_positions(rs, mask: int) -> list[int]:
    """Positions of roots in the subsystem that are not orthogonal to another.

    Such a root lies in an irreducible component of rank >= 2, so it is a
    rational combination of the subsystem's other roots.
    """
    pos = [p for p in range(rs.d) if mask >> p & 1]
    vec = {p: rs.roots[rs.positives[p]] for p in pos}
    return [p for p in pos if any(q != p and _dot(vec[p], vec[q]) for q in pos)]


class Workload:
    """setup() runs once per process, untimed; run() is one timed pass."""

    cli_stdout_bytes = 0
    flats = 0

    def __init__(self, size: str, seed: int):
        self.cfg = SIZES[size]
        self.size = size
        self.seed = seed
        self.outputs: dict[str, str] = {}  # last stdout of each command

    def setup(self, cache_dir: Path) -> None:
        raise NotImplementedError

    def run(self) -> list[tuple[str, float, bool]]:
        raise NotImplementedError

    def _cli(self, kind: str, argv: list[str], check) -> tuple[str, float, bool]:
        def op():
            rc, out = run_cli(argv)
            self.cli_stdout_bytes += len(out.encode())
            self.outputs[kind] = out
            return rc, out

        return _timed(kind, op, lambda res: res[0] == 0 and check(res[1]))


class Enum(Workload):
    """`betti T --method enum`; each row must equal the closed form."""

    def setup(self, cache_dir: Path) -> None:
        from coxstrata import betti_row_closed_form, build_root_system

        self.expected = {}
        self.flats = 0  # flats enumerated by one pass
        for t in self.cfg["enum_types"]:
            build_root_system(t)
            row = betti_row_closed_form(t)
            self.expected[t] = " ".join(map(str, row)) + "\n"
            self.flats += sum(row)

    def run(self):
        return [
            self._cli(f"betti_{t}", ["betti", t, "--method", "enum"],
                      lambda out, t=t: out == self.expected[t])
            for t in self.cfg["enum_types"]
        ]


class Cli(Workload):
    """Export (cold, then warm from the cache), orbits, member, cup, verify.

    Every stdout but member's must match a digest recorded from the commit
    that introduced the benchmark.  The member point depends on the seed, so
    its answer is checked against the flat the point was built on, looked up
    in the exported lattice.
    """

    MEMBER_RE = re.compile(
        r"^stratum rank (\d+) \(flat (\d+), codimension (\d+)\), "
        r"witness on positions \[([0-9, ]*)\]\n$"
    )

    def setup(self, cache_dir: Path) -> None:
        from coxstrata import build_root_system, closure

        lat_type, cup_type = self.cfg["cli_lattice"], self.cfg["cli_cup"]
        rs = build_root_system(lat_type)
        build_root_system(cup_type)
        rng = random.Random(self.seed)
        # A seeded point on a seeded flat: a linear functional's values on the
        # flat's positive roots, infinity elsewhere.
        picks = rng.sample(range(rs.d), rng.randrange(1, rs.rank))
        self.member_mask = closure(rs, sum(1 << p for p in picks))
        h = _random_functional(rng, rs.ambient)
        coords = []
        for p in range(rs.d):
            if self.member_mask >> p & 1:
                coords.append(_fraction_text(sum(a * b for a, b in zip(rs.roots[rs.positives[p]], h))))
            else:
                coords.append("inf")
        self.rank, self.d = rs.rank, rs.d
        self.cache_root, self.pass_no = cache_dir, 0
        # The cache directory is filled in per pass, so every pass starts cold.
        export = ["lattice", lat_type, "--export", "json", "--cache-dir", None]
        verify = ["verify", *self.cfg["cli_verify"], "--level", "quick"]
        self.commands = [
            ("export_cold", export),
            ("export_warm", export),
            ("orbits", ["orbits", lat_type]),
            ("member", ["member", lat_type, "--point=" + ",".join(coords)]),
            ("cup", ["cup", cup_type]),
            ("verify", verify),
        ]

    def _member_ok(self, out: str) -> bool:
        m = self.MEMBER_RE.match(out)
        if m is None:
            return False
        rank, fid, codim = int(m.group(1)), int(m.group(2)), int(m.group(3))
        witness = [int(x) for x in m.group(4).split(",") if x.strip()]
        support = [p for p in range(self.d) if self.member_mask >> p & 1]
        flats = json.loads(self.outputs["export_cold"])["flats"]
        flat = flats[fid]
        return (
            flat["id"] == fid
            and flat["positive_roots"] == support
            and flat["rank"] == rank
            and codim == self.rank - rank
            and len(witness) == rank
            and set(witness) <= set(support)
        )

    def run(self):
        digests = json.loads(REFERENCE.read_text())[self.size]
        self.pass_no += 1
        cache = str(self.cache_root / f"pass{self.pass_no}")
        ops = []
        for kind, argv in self.commands:
            argv = [cache if a is None else a for a in argv]
            if kind == "member":
                check = self._member_ok
            else:
                digest = digests["export" if kind.startswith("export") else kind]
                check = lambda out, digest=digest: sha256(out) == digest
            ops.append(self._cli(kind, argv, check))
        return ops


class Queries(Workload):
    """Mixed membership, rejection, cup, classification and orbit queries.

    Every answer is checked against what the generator knows: the flat a
    member was built on (moved by the same Weyl word where one was applied),
    rejection for a point built to break support closure or a root relation,
    rank additivity for a nonzero cup product, the rank and root count of a
    classified flat, and rank, root count and group-order divisibility for an
    orbit.
    """

    KINDS = (
        ("member", 25),
        ("member_translated", 10),
        ("member_weyl", 10),
        ("reject_support", 10),
        ("reject_relation", 10),
        ("cup", 15),
        ("classify", 10),
        ("orbit", 10),
    )

    def setup(self, cache_dir: Path) -> None:
        from coxstrata import build_lattice, build_root_system

        self.rs = rs = build_root_system(self.cfg["query_type"])
        self.lat = build_lattice(rs)
        self.levels = [[self.lat.flats[i].mask for i in ids] for ids in self.lat.by_rank]
        rng = random.Random(self.seed)
        self.weyl_order = WEYL_ORDERS[self.cfg["query_type"]]
        self.linked = [
            f for f in self.lat.flats if _linked_positions(rs, f.mask)
        ]
        # Fixed counts per kind, and flats spread over (rank, root count)
        # classes in proportion to their sizes, so that the cost of a pass
        # barely depends on the seed.
        self.queries = []
        for kind, weight in self.KINDS:
            count = self.cfg["queries"] * weight // 100
            pool = self.linked if kind.startswith("reject") else self.lat.flats
            others = _stratified(rng, self.lat.flats, count)
            for flat, other in zip(_stratified(rng, pool, count), others):
                self.queries.append(self._make(kind, flat, other, rng))
        rng.shuffle(self.queries)

    # -- generation ---------------------------------------------------------

    def _values(self, mask: int, h, bump: int | None = None):
        rs = self.rs
        vals = []
        for p in range(rs.d):
            if mask >> p & 1:
                v = sum(a * b for a, b in zip(rs.roots[rs.positives[p]], h))
                vals.append(v + 1 if p == bump else v)
            else:
                vals.append(None)
        return tuple(vals)

    def _moved_mask(self, mask: int, word: list[int]) -> int:
        """Positive positions of w(F), w acting by the word's reflections."""
        rs = self.rs
        simples = [rs.roots[i] for i in rs.simples]
        out = 0
        for p in range(rs.d):
            if not mask >> p & 1:
                continue
            v = rs.roots[rs.positives[p]]
            for letter in reversed(word):  # the leftmost letter acts last
                a = simples[letter - 1]
                c = 2 * _dot(v, a) // _dot(a, a)
                v = tuple(x - c * y for x, y in zip(v, a))
            idx = rs.index[v]
            out |= 1 << rs.pos_of.get(idx, rs.pos_of.get(rs.neg[idx], -1))
        return out

    def _make(self, kind: str, flat, other, rng: random.Random):
        from coxstrata import ExtendedPoint

        rs, lat = self.rs, self.lat
        if kind in ("reject_support", "reject_relation"):
            p = rng.choice(_linked_positions(rs, flat.mask))
            h = _random_functional(rng, rs.ambient)
            if kind == "reject_support":
                point = ExtendedPoint(self._values(flat.mask & ~(1 << p), h))
            else:
                point = ExtendedPoint(self._values(flat.mask, h, bump=p))
            return kind, (point,), None
        if kind == "member":
            point = ExtendedPoint(self._values(flat.mask, _random_functional(rng, rs.ambient)))
            return kind, (point,), flat.id
        if kind == "member_translated":
            point = ExtendedPoint(self._values(flat.mask, _random_functional(rng, rs.ambient)))
            return kind, (point, _random_functional(rng, rs.ambient)), flat.id
        if kind == "member_weyl":
            point = ExtendedPoint(self._values(flat.mask, _random_functional(rng, rs.ambient)))
            word = [rng.randrange(1, rs.rank + 1) for _ in range(4)]
            return kind, (point, word), lat.id_of[self._moved_mask(flat.mask, word)]
        if kind == "cup":
            return kind, (flat.id, other.id), None
        return kind, (flat.id,), None  # classify, orbit

    # -- the timed pass -------------------------------------------------------

    def run(self):
        from coxstrata import (
            GradedClass,
            IntersectionLattice,
            Rejection,
            StratumResult,
            classify_subsystem,
            cup,
            h_translate,
            membership,
            orbit_of_flat,
            weyl_act_point,
        )

        # A fresh lattice object per pass, so its join cache starts empty.
        rs = self.rs
        lat = IntersectionLattice(rs, self.levels, self.lat.covers)

        def member_check(expected):
            return lambda res: isinstance(res, StratumResult) and res.flat_id == expected

        def is_rejection(res):
            return isinstance(res, Rejection)

        def cup_check(x, y):
            def check(res):
                if res.is_zero():
                    return True
                (z,) = res.coefficients
                fz, fx, fy = lat.flats[z], lat.flats[x], lat.flats[y]
                return (
                    res.coefficients[z] == 1
                    and fz.rank == fx.rank + fy.rank
                    and fz.mask & (fx.mask | fy.mask) == fx.mask | fy.mask
                )

            return check

        def classify_check(fid):
            flat = lat.flats[fid]

            def check(ctype):
                roots = sum(positive_root_count(f, r) for f, r in ctype.factors)
                return ctype.rank == flat.rank and roots == bin(flat.mask).count("1")

            return check

        def orbit_check(fid):
            flat = lat.flats[fid]

            def check(orbit):
                return (
                    fid in orbit
                    and self.weyl_order % len(orbit) == 0
                    and all(
                        lat.flats[o].rank == flat.rank
                        and bin(lat.flats[o].mask).count("1") == bin(flat.mask).count("1")
                        for o in orbit
                    )
                )

            return check

        ops = []
        for kind, args, expected in self.queries:
            if kind == "member":
                (point,) = args
                rec = _timed(kind, lambda: membership(rs, lat, point), member_check(expected))
            elif kind == "member_translated":
                point, y = args
                rec = _timed(
                    kind,
                    lambda: membership(rs, lat, h_translate(rs, point, y)),
                    member_check(expected),
                )
            elif kind == "member_weyl":
                point, word = args
                rec = _timed(
                    kind,
                    lambda: membership(rs, lat, weyl_act_point(rs, word, point)),
                    member_check(expected),
                )
            elif kind.startswith("reject"):
                (point,) = args
                rec = _timed(kind, lambda: membership(rs, lat, point), is_rejection)
            elif kind == "cup":
                x, y = args
                rec = _timed(
                    kind,
                    lambda: cup(GradedClass.basis(lat, x), GradedClass.basis(lat, y)),
                    cup_check(x, y),
                )
            elif kind == "classify":
                (fid,) = args
                rec = _timed(
                    kind, lambda: classify_subsystem(rs, lat.flats[fid].mask), classify_check(fid)
                )
            else:
                (fid,) = args
                rec = _timed(kind, lambda: orbit_of_flat(rs, lat, fid), orbit_check(fid))
            ops.append(rec)
        return ops


WORKLOADS = {"enum": Enum, "cli": Cli, "queries": Queries}
