"""Command-line surface: tables, JSON/CSV export, verification, caching.

Every command but `cup` and `rootinfo` takes --allow-huge, which lifts
the flat budget; `cup` needs the whole lattice, out of reach for E8.
Every command that enumerates flats (`betti --method enum`, `lattice`, `cup`,
`orbits`, `good`, `member`, `verify`) gets its root system from the one gate
`flats.enumerable`, which checks the budget before it builds the root system,
and uses the W-orbit walk of flats.py; `verify` also counts the flats by the
closure sweep, its independent second route.
`cup` reads its table off the lattice's covers; `lattice --export` and
`good` give each flat the Cartan type of its W-orbit, classified once per
orbit by `weyl.orbit_types` on a walked `flats.Level` (`weyl.flat_types`
reads the levels the lattice keeps, `good` walks its one rank);
`cohomology.cup` and `flats.join` stay the library API and the route by
which `verify` checks the ring axioms.

Exit codes: 0 success, 1 verification mismatch, 2 usage or I/O error.
The arguments are the only configuration: no environment variable is
read, and only `lattice --cache-dir D` reads or writes a file (D/<type>.cxlt).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import struct
import sys
from fractions import Fraction
from itertools import count, islice
from pathlib import Path
from typing import Iterator

import numpy as np

from . import betti
from .errors import CoxstrataError, InvalidRank, InvariantViolation, NotClassical, ResourceLimit
from .flats import (
    Flat,
    IntersectionLattice,
    build_lattice,
    enumerable,
    flat_id,
    key_masks,
    walk,
    walk_level,
    walk_rank_counts,
)
from .goodsub import bds_candidates, param_F
from .rootsys import CartanType, RootSystem, build_root_system, classify_subsystem
from .strata import ExtendedPoint, Rejection, _stratum
from .weyl import flat_types, orbit_types, parabolic_summary

CACHE_MAGIC = b"CXLT"
CACHE_VERSION = 3


def _parse_type(text: str) -> CartanType:
    ctype = CartanType.parse(text)
    if not ctype.is_irreducible:
        raise InvalidRank(f"type must look like A3, B4, E8; got {text!r}")
    return ctype


# -- binary lattice cache ---------------------------------------------------
#
# A cache file is a 40-byte header (magic, version, one SHA-256 over the
# positive-root order and the payload) and a payload: the cover pairs, as
# flat ids.  The digest binds the file to its root system and rejects any
# corrupted byte.  The flats, their ids and orbit labels come from the walk
# on load, so a change to the order of flat ids must bump CACHE_VERSION.


def _cache_header(rs: RootSystem, payload) -> bytes:
    h = hashlib.sha256(
        b"|".join(b",".join(str(x).encode() for x in rs.roots[i]) for i in rs.positives)
    )
    h.update(payload)
    return CACHE_MAGIC + struct.pack("<I", CACHE_VERSION) + h.digest()


def save_lattice_cache(lat: IntersectionLattice, path: Path) -> None:
    covers = np.array(lat.covers, dtype="<u4")
    # A reader sees the old file or the whole new one, never a partial write.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as out:
            out.write(_cache_header(lat.rs, covers))
            out.write(covers)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def load_lattice_cache(rs: RootSystem, path: Path) -> IntersectionLattice | None:
    """Read a cache; another version, root system or any corrupted byte returns None."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    payload = memoryview(data)[40:]
    if data[:40] != _cache_header(rs, payload):
        return None
    walks = list(walk(rs))
    levels = [key_masks(level.keys) for level in walks]
    # Covers share one int object per id, as build_lattice's do.
    ids = list(range(sum(map(len, levels))))
    try:
        covers = [(ids[lo], ids[hi]) for lo, hi in struct.iter_unpack("<II", payload)]
    except (struct.error, IndexError):  # only a hand-made file with a valid digest gets here
        return None
    return IntersectionLattice(rs, levels, covers, walks)


# -- streamed JSON ------------------------------------------------------------
#
# The writers below give the bytes of print(json.dumps(payload, indent=2,
# sort_keys=True)) one item at a time, so no payload or string of it is held.


def _write_json_list(out, items: Iterator[str]) -> None:
    """Write a nonempty list that is a value of the top-level object; each
    item comes rendered at an indent of four spaces.  Items go out 4,096
    to a write."""
    sep = "[\n"
    for chunk in iter(lambda: list(islice(items, 4096)), []):
        out.write(sep + ",\n".join(chunk))
        sep = ",\n"
    out.write("\n  ]")


def _write_lattice_json(lat: IntersectionLattice, out) -> None:
    """The flats and covers; each flat's type comes from its W-orbit's."""
    rs = lat.rs

    def flat_json(f: Flat, ctype: CartanType) -> str:
        roots = ",\n        ".join(map(str, rs.positions(f.mask)))
        roots = f"[\n        {roots}\n      ]" if roots else "[]"
        return (
            f'    {{\n      "cartan_type": {json.dumps(str(ctype))},\n      "id": {f.id},\n'
            f'      "positive_roots": {roots},\n      "rank": {f.rank}\n    }}'
        )

    out.write('{\n  "covers": ')
    _write_json_list(out, map("    [\n      %d,\n      %d\n    ]".__mod__, lat.covers))
    out.write(f',\n  "d": {rs.d},\n  "flats": ')
    flats = zip(lat.flats, flat_types(lat), strict=True)
    _write_json_list(out, (flat_json(f, ctype) for f, ctype in flats))
    out.write(f',\n  "rank": {rs.rank},\n  "type": {json.dumps(str(rs.ctype))}\n}}\n')


# -- commands ----------------------------------------------------------------


def cmd_rootinfo(args) -> int:
    rs = build_root_system(_parse_type(args.type))
    if args.json:
        payload = {
            "type": str(rs.ctype),
            "rank": rs.rank,
            "d": rs.d,
            "positive_roots": [list(rs.roots[i]) for i in rs.positives],
            "simples": [rs.pos_of[i] for i in rs.simples],
            "highest": rs.pos_of[rs.highest],
            "labels": rs.labels,
            "affine_adjacency": [
                [i, j, m] for (i, j), m in sorted(rs.affine_adjacency.items())
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"type {rs.ctype}  rank {rs.rank}  positive roots {rs.d}")
    for p, idx in enumerate(rs.positives):
        tags = []
        if idx in rs.simples:
            tags.append(f"alpha_{rs.simples.index(idx) + 1}")
        if idx == rs.highest:
            tags.append("highest")
        tag = ("  # " + ", ".join(tags)) if tags else ""
        print(f"  [{p}] {tuple(rs.roots[idx])}{tag}")
    print("labels m_0..m_r:", " ".join(str(m) for m in rs.labels))
    print(
        "affine adjacency:",
        " ".join(f"{i}-{j}x{m}" for (i, j), m in sorted(rs.affine_adjacency.items())),
    )
    return 0


def cmd_betti(args) -> int:
    ctype = _parse_type(args.type)
    family, rank = ctype.factors[0]
    methods = {}
    wanted = ["formula", "enum", "series"] if args.compare else [args.method]
    for method in wanted:
        if method == "formula":
            methods["formula"] = betti.betti_row_closed_form(ctype)
        elif method == "enum":
            rs, budget = enumerable(ctype, args.allow_huge)
            methods["enum"] = list(reversed(walk_rank_counts(rs, max_flats=budget)))
        elif method == "series":
            if family not in ("A", "B", "C", "D"):
                if args.compare:
                    continue
                raise NotClassical("series method applies to classical families only")
            fam = "B" if family == "C" else family
            methods["series"] = betti.series_coefficients(fam, rank)[rank]
    if args.compare:
        rows = list(methods.values())
        agree = all(row == rows[0] for row in rows)
        for name, row in sorted(methods.items()):
            print(f"{name:8s} " + " ".join(str(x) for x in row))
        if not agree:
            print("MISMATCH between methods", file=sys.stderr)
            return 1
        return 0
    row = methods[args.method]
    print(" ".join(str(x) for x in row))
    return 0


def cmd_lattice(args) -> int:
    if args.cache_dir == "":  # Path("") would name the working directory
        raise ValueError("--cache-dir needs a directory, not an empty path")
    rs, budget = enumerable(_parse_type(args.type), args.allow_huge)
    path = None if args.cache_dir is None else Path(args.cache_dir) / f"{rs.ctype}.cxlt"
    lat = None if path is None else load_lattice_cache(rs, path)
    if lat is None:
        lat = build_lattice(rs, max_flats=budget)
        if path is not None:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                save_lattice_cache(lat, path)
            except OSError as exc:
                print(f"warning: lattice cache not written: {exc}", file=sys.stderr)
    if args.export == "json":
        _write_lattice_json(lat, sys.stdout)
    elif args.export == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["id", "rank", "cartan_type", "positive_roots"])
        for f, ctype in zip(lat.flats, flat_types(lat), strict=True):
            writer.writerow([f.id, f.rank, str(ctype), " ".join(map(str, rs.positions(f.mask)))])
    else:
        print(f"type {rs.ctype}: {len(lat.flats)} flats, {len(lat.covers)} covers")
        print("counts by codimension:", " ".join(str(x) for x in lat.betti_row()))
    return 0


def cmd_good(args) -> int:
    ctype = _parse_type(args.type)
    if args.bds:
        rs = build_root_system(ctype)
        for (i, j), mask in bds_candidates(rs):
            print(
                f"nodes ({i},{j}) labels ({rs.labels[i]},{rs.labels[j]}) -> "
                f"{classify_subsystem(rs, mask)} positives {rs.positions(mask)}"
            )
        return 0
    if args.classical_param and ctype.factors[0][0] not in "ABCD":
        raise NotClassical(f"{ctype} is not classical")
    rs, _ = enumerable(ctype, args.allow_huge)
    level = walk_level(rs, rs.rank - 1)
    types = map(orbit_types(rs, level).__getitem__, level.label.tolist())
    for fid, mask, ctype in zip(count(level.first), key_masks(level.keys), types):
        line = f"flat {fid}: {ctype} positives {rs.positions(mask)}"
        if args.classical_param:
            line += f"  param {sorted(param_F(rs, mask))}"
        print(line)
    return 0


def cmd_orbits(args) -> int:
    # The walk holds a whole rank of flat masks, so it keeps the lattice's budget.
    rs, _ = enumerable(_parse_type(args.type), args.allow_huge)
    summary = parabolic_summary(rs, walk(rs))
    print(f"type {rs.ctype}: |W| = {summary.weyl_order}, {summary.class_count} classes")
    for rank, recs in enumerate(summary.per_rank):
        for rec in recs:
            print(
                f"  rank {rank}: rep flat {rec.representative}  orbit {rec.size}  "
                f"stabilizer {rec.stabilizer_order}  type {rec.cartan_type}"
            )
    return 0


def _cup_table(lat: IntersectionLattice) -> dict[int, list[int | None]]:
    """Row atom, column X: the flat of xi_atom * xi_X, or None for 0.

    The product is 0 for an atom inside X; otherwise it is the one cover
    of X that contains the atom.  A rank-1 flat is one positive root, so
    each new position of a cover names its atom.
    """
    table = {atom: [None] * len(lat.flats) for atom in lat.atoms()}
    for lo, hi in lat.covers:
        new = lat.flats[hi].mask & ~lat.flats[lo].mask
        while new:
            bit = new & -new
            table[lat.id_of[bit]][lo] = hi
            new ^= bit
    return table


def cmd_cup(args) -> int:
    rs, budget = enumerable(_parse_type(args.type))
    table = _cup_table(build_lattice(rs, max_flats=budget))
    out = sys.stdout
    if args.format == "json":
        products = (
            f'    {{\n      "atom": {atom},\n      "flat": {fid},\n'
            f'      "result": {"null" if t is None else t}\n    }}'
            for atom, row in table.items()
            for fid, t in enumerate(row)
        )
        out.write('{\n  "products": ')
        _write_json_list(out, products)
        out.write(f',\n  "type": {json.dumps(str(rs.ctype))}\n}}\n')
    else:
        out.write("| atom | flat | product |\n| --- | --- | --- |\n")
        for atom, row in table.items():
            cells = ("0" if t is None else t for t in row)
            out.write("".join(f"| {atom} | {fid} | {t} |\n" for fid, t in enumerate(cells)))
    return 0


def _parse_point(text: str, rs: RootSystem) -> ExtendedPoint:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rs.d:
        raise InvalidRank(f"point needs {rs.d} coordinates, got {len(parts)}")
    vals = []
    for p in parts:
        if p.lower() in ("inf", "infinity", "oo"):
            vals.append(None)
        else:
            try:
                vals.append(Fraction(p))
            except ZeroDivisionError:
                raise ValueError(f"coordinate {p!r} has a zero denominator") from None
    return ExtendedPoint(tuple(vals))


def cmd_member(args) -> int:
    rs, _ = enumerable(_parse_type(args.type), args.allow_huge)
    point = _parse_point(args.point, rs)
    result = _stratum(rs, point)
    if isinstance(result, Rejection):
        print(f"not in variety: {result.reason}")
        return 0
    mask, witness = result
    rank = len(witness.basis_positions)
    fid = flat_id(rs, rank, mask)
    if fid is None:
        raise InvariantViolation(f"stratum mask {mask} is not a rank-{rank} flat")
    print(
        f"stratum rank {rank} (flat {fid}, codimension {rs.rank - rank}), "
        f"witness on positions {list(witness.basis_positions)}"
    )
    return 0


def cmd_verify(args) -> int:
    from .verify import verify_battery, verify_type

    if args.type is not None:
        _parse_type(args.type)  # a reducible type is a usage error
        checks = verify_type(args.type, args.level, allow_huge=args.allow_huge)
    else:
        checks = verify_battery(args.level, allow_huge=args.allow_huge)
    failed = 0
    for name, ok, detail in checks:
        tag = "PASS" if ok else "FAIL"
        suffix = f"  {detail}" if detail and not ok else ""
        print(f"{tag} {name}{suffix}")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


@functools.cache  # one parser per process, however often main() is called
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxstrata",
        description="Exact stratification combinatorics of reflection arrangements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rootinfo", help="list roots, labels, affine diagram")
    p.add_argument("type")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rootinfo)

    p = sub.add_parser("betti", help="stratum counts by codimension")
    p.add_argument("type")
    p.add_argument("--method", choices=["enum", "formula", "series"], default="formula")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--allow-huge", action="store_true")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("lattice", help="enumerate flats; export or cache them")
    p.add_argument("type")
    p.add_argument("--export", choices=["json", "csv"])
    p.add_argument("--cache-dir")
    p.add_argument("--allow-huge", action="store_true")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("good", help="rank r-1 subsystems / candidates")
    p.add_argument("type")
    p.add_argument("--bds", action="store_true", help="affine-diagram candidates")
    p.add_argument("--classical-param", action="store_true")
    p.add_argument("--allow-huge", action="store_true")
    p.set_defaults(func=cmd_good)

    p = sub.add_parser("orbits", help="orbit/stabilizer table")
    p.add_argument("type")
    p.add_argument("--allow-huge", action="store_true")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("cup", help="atom x flat multiplication table")
    p.add_argument("type")
    p.add_argument("--format", choices=["json", "markdown"], default="markdown")
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("member", help="decide membership of a point")
    p.add_argument("type")
    p.add_argument("--point", required=True, help="comma list of fractions or inf")
    p.add_argument("--allow-huge", action="store_true")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("type", nargs="?")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--allow-huge", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as "-1,2,3" as an option; bind each to its flag.
    while "--point" in argv[:-1]:
        i = argv.index("--point")
        argv[i : i + 2] = [f"--point={argv[i + 1]}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ResourceLimit as exc:
        # Every command that has --allow-huge passes it on to the flat budget.
        hint = " (use --allow-huge to opt in)" if "allow_huge" in vars(args) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except (CoxstrataError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
