from __future__ import annotations

import csv
import hashlib
import io
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import flat_level, join_by_closure
from coxstrata import cli
from coxstrata.betti import EXCEPTIONAL_ROWS, betti_row_closed_form
from coxstrata.cli import _cup_table, load_lattice_cache, main, save_lattice_cache
from coxstrata.cohomology import GradedClass, cup
from coxstrata.errors import ResourceLimit
from coxstrata.flats import IntersectionLattice, _bfs, build_lattice
from coxstrata.rootsys import CartanType, RootSystem, build_root_system, classify_subsystem


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "coxstrata.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_rootinfo_a2(capsys):
    assert main(["rootinfo", "A2"]) == 0
    out = capsys.readouterr().out
    assert "positive roots 3" in out
    assert "highest" in out


def test_rootinfo_g2(capsys):
    assert main(["rootinfo", "G2"]) == 0
    assert "positive roots 6" in capsys.readouterr().out


def test_rootinfo_invalid_rank_exits_2():
    assert main(["rootinfo", "A0"]) == 2
    assert main(["rootinfo", "H3"]) == 2
    assert main(["rootinfo", "B4x"]) == 2


def test_betti_rows(capsys):
    assert main(["betti", "A5"]) == 0
    assert capsys.readouterr().out.strip() == "1 31 90 65 15 1"
    assert main(["betti", "E6"]) == 0
    assert capsys.readouterr().out.strip() == "1 639 2001 1530 390 36 1"


def test_betti_compare(capsys):
    assert main(["betti", "D4", "--compare"]) == 0
    out = capsys.readouterr().out
    assert out.count("1 24 34 12 1") == 3


def test_betti_compare_mismatch_exits_1(monkeypatch, capsys):
    monkeypatch.setattr("coxstrata.cli.walk_rank_counts", lambda rs, max_flats: [1, 12, 12, 1])
    assert main(["betti", "D4", "--compare"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "MISMATCH between methods\n"
    assert "enum     1 12 12 1\n" in captured.out


def test_betti_methods(capsys):
    assert main(["betti", "B3", "--method", "enum"]) == 0
    assert capsys.readouterr().out.strip() == "1 13 9 1"
    assert main(["betti", "B3", "--method", "series"]) == 0
    assert capsys.readouterr().out.strip() == "1 13 9 1"
    # series is classical-only
    assert main(["betti", "G2", "--method", "series"]) == 2


def test_betti_series_refuses_exceptional_types_as_an_error(capsys):
    assert main(["betti", "G2", "--method", "series"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: series method applies to classical families only\n"
    # --compare leaves the series out for G, F and E instead
    assert main(["betti", "G2", "--compare"]) == 0
    assert capsys.readouterr().out == "enum     1 6 1\nformula  1 6 1\n"


def test_betti_builds_no_root_system_without_enum(monkeypatch, capsys):
    def refuse(ctype):
        raise RuntimeError(f"betti built the {ctype} root system")

    monkeypatch.setattr(cli, "build_root_system", refuse)
    for argv, row in [
        (["betti", "A40"], betti_row_closed_form("A40")),
        (["betti", "B40", "--method", "series"], betti_row_closed_form("B40")),
        (["betti", "E8"], EXCEPTIONAL_ROWS["E8"]),
    ]:
        assert main(argv) == 0
        assert capsys.readouterr().out.split() == [str(x) for x in row]


def test_betti_of_a_large_classical_type_needs_no_deep_recursion():
    # A subprocess: a fresh interpreter with the default recursion limit.
    result = run_cli("betti", "A600")
    assert result.returncode == 0, result.stderr
    row = result.stdout.split()
    assert len(row) == 601
    # S(601, 1), S(601, 2) and S(601, 601)
    assert row[:2] == ["1", str(2**600 - 1)] and row[-1] == "1"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_betti_of_a_large_classical_type_keeps_one_stirling_row():
    # The whole triangle S(0..1201, .) would peak near 400 MB; one row needs a few MB.
    script = (
        "import io, contextlib\n"
        "from coxstrata.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['betti', 'A1200']) == 0\n"
        "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) <= 100 * 1024  # kB


def test_member_fixtures(capsys):
    assert main(["member", "A2", "--point", "1,2,3"]) == 0
    assert "stratum rank 2" in capsys.readouterr().out
    assert main(["member", "A2", "--point", "1,2,inf"]) == 0
    assert "not in variety" in capsys.readouterr().out
    assert main(["member", "A2", "--point", "1/2,3/2,2"]) == 0
    assert "stratum rank 2" in capsys.readouterr().out
    assert main(["member", "A2", "--point", "1,2"]) == 2


def test_member_zero_denominator_is_a_usage_error(capsys):
    assert main(["member", "A2", "--point", "1/0,2,3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zero denominator" in err


def test_member_point_may_start_negative(capsys):
    assert main(["member", "A2", "--point", "-1,2,1"]) == 0
    spaced = capsys.readouterr().out
    assert main(["member", "A2", "--point=-1,2,1"]) == 0
    assert capsys.readouterr().out == spaced
    assert spaced.startswith("stratum rank 2")
    # A repeated --point takes its last value, as argparse does, negative or not.
    for argv in (["--point", "1,2,inf", "--point", "-1,2,1"], ["--point=1,2,inf", "--point=-1,2,1"]):
        assert main(["member", "A2", *argv]) == 0
        assert capsys.readouterr().out == spaced


def test_member_coordinate_order_matches_rootinfo(capsys):
    # the CLI point order is the printed positive-root order
    assert main(["rootinfo", "A2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    roots = [tuple(v) for v in payload["positive_roots"]]
    values = {(1, -1, 0): "4", (0, 1, -1): "5", (1, 0, -1): "9"}
    point = ",".join(values[r] for r in roots)
    assert main(["member", "A2", "--point", point]) == 0
    assert "stratum rank 2" in capsys.readouterr().out


def test_lattice_json_schema(capsys):
    assert main(["lattice", "A2", "--export", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"type", "rank", "d", "flats", "covers"}
    assert len(payload["flats"]) == 5
    assert all(set(f) == {"id", "rank", "positive_roots", "cartan_type"} for f in payload["flats"])
    ranks = [f["rank"] for f in payload["flats"]]
    assert ranks == sorted(ranks)
    for lo, hi in payload["covers"]:
        assert payload["flats"][hi]["rank"] == payload["flats"][lo]["rank"] + 1


def test_lattice_csv(capsys):
    assert main(["lattice", "B2", "--export", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("id,rank,cartan_type")
    assert len(lines) == 1 + 6


def _refuse_to_build(*args, **kwargs):
    raise RuntimeError("build_lattice called")


def test_cache_round_trip(tmp_path):
    rs = build_root_system("B3")
    lat = build_lattice(rs)
    path = tmp_path / "B3.cxlt"
    save_lattice_cache(lat, path)
    loaded = load_lattice_cache(rs, path)
    assert loaded is not None
    assert [(f.id, f.rank, f.mask) for f in loaded.flats] == [
        (f.id, f.rank, f.mask) for f in lat.flats
    ]
    assert loaded.covers == lat.covers
    # corrupted magic is rejected, not fatal
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    assert load_lattice_cache(rs, path) is None
    # a different type's cache is rejected by the header
    other = build_root_system("C3")
    save_lattice_cache(build_lattice(other), path)
    assert load_lattice_cache(rs, path) is None


# SHA-256 of the version-3 cache files: the header and the cover pairs.
CACHE_FILE_SHA256 = {
    "B3": "9113243d9a344f7a152a2b356ca7d59fe3e7c960d10f36144370f3ec98537a28",
    "B5": "900f09bbc5216b6ed6c8accc638fe5cf15f54c15eb3d0b765aa7ec4d35211426",
}


@pytest.mark.parametrize("name", sorted(CACHE_FILE_SHA256))
def test_cache_file_bytes_are_pinned(name, tmp_path):
    path = tmp_path / f"{name}.cxlt"
    save_lattice_cache(build_lattice(build_root_system(name)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_FILE_SHA256[name]
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_a_loaded_lattice_holds_its_walk(tmp_path, monkeypatch):
    rs = build_root_system("F4")
    built, path = build_lattice(rs), tmp_path / "F4.cxlt"
    save_lattice_cache(built, path)
    loaded = load_lattice_cache(rs, path)
    assert loaded is not None

    def no_walk(rs, ranks):
        raise AssertionError("walked after load")

    monkeypatch.setattr("coxstrata.flats._bfs", no_walk)
    for k in range(rs.rank + 1):
        level, expected = loaded.level(k), built.level(k)
        assert level.first == expected.first and level.orbits == expected.orbits
        assert np.array_equal(level.keys, expected.keys)
        assert np.array_equal(level.label, expected.label)


def test_lattice_command_uses_cache(tmp_path, monkeypatch, capsys):
    # Cold, then warm with building refused: the cache alone answers.
    args = ["lattice", "A3", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["A3.cxlt"]
    monkeypatch.setattr("coxstrata.cli.build_lattice", _refuse_to_build)
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "argv", [["cup", "A3"], ["lattice", "A3"], ["lattice", "A3", "--export", "csv"]], ids=" ".join
)
def test_lattice_commands_answer_the_same_cold_and_warm(argv, tmp_path, monkeypatch, capsys):
    # Without --cache-dir a repeat run rebuilds the same answer, and no run
    # reads, writes or leaves a cache file.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("coxstrata.cli.load_lattice_cache", _refuse_to_build)
    monkeypatch.setattr("coxstrata.cli.save_lattice_cache", _refuse_to_build)
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert cold
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert not any(tmp_path.iterdir())


def _export_reference(name):
    """The export by per-flat classification and the json/csv encoders."""
    rs = build_root_system(name)
    lat = build_lattice(rs)
    types = [str(classify_subsystem(rs, f.mask)) for f in lat.flats]
    payload = {
        "type": name,
        "rank": rs.rank,
        "d": rs.d,
        "flats": [
            {"id": f.id, "rank": f.rank, "positive_roots": rs.positions(f.mask), "cartan_type": t}
            for f, t in zip(lat.flats, types)
        ],
        "covers": [[lo, hi] for lo, hi in lat.covers],
    }
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["id", "rank", "cartan_type", "positive_roots"])
    for f, t in zip(lat.flats, types):
        writer.writerow([f.id, f.rank, t, " ".join(str(p) for p in rs.positions(f.mask))])
    return {"json": json.dumps(payload, indent=2, sort_keys=True) + "\n", "csv": rows.getvalue()}


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "G2", "F4"])
def test_export_equals_per_flat_classification_cold_and_warm(name, tmp_path, monkeypatch, capsys):
    expected = _export_reference(name)
    for fmt in ("json", "csv"):
        argv = ["lattice", name, "--export", fmt, "--cache-dir", str(tmp_path / fmt)]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected[fmt], (fmt, "cold")
    monkeypatch.setattr("coxstrata.cli.build_lattice", _refuse_to_build)
    for fmt in ("json", "csv"):
        assert main(["lattice", name, "--export", fmt, "--cache-dir", str(tmp_path / fmt)]) == 0
        assert capsys.readouterr().out == expected[fmt], (fmt, "warm")


@pytest.mark.parametrize("name", ["B3", "F4"])
def test_export_walks_each_rank_once_cold_and_warm(name, tmp_path, monkeypatch, capsys):
    # The cold export reads the levels that build_lattice kept; the warm
    # one runs the whole walk once, on load, and builds no lattice.
    walked = _count_walks(monkeypatch)
    rank = build_root_system(name).rank
    for run in ("cold", "warm"):
        if run == "warm":
            monkeypatch.setattr("coxstrata.cli.build_lattice", _refuse_to_build)
        for fmt in ("json", "csv"):
            walked.clear()
            assert main(["lattice", name, "--export", fmt, "--cache-dir", str(tmp_path / fmt)]) == 0
            assert walked == [list(range(rank + 1))]
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4"]
)
def test_cup_table_from_covers_equals_cup_of_basis_classes(name, lattice_of):
    rs, lat = lattice_of(name)
    table = _cup_table(lat)
    assert list(table) == lat.atoms()
    for atom, row in table.items():
        assert len(row) == len(lat.flats)
        for fid, target in enumerate(row):
            joined = join_by_closure(lat, atom, fid)
            assert target == (joined if lat.flat(joined).rank == lat.flat(fid).rank + 1 else None)
            expected = GradedClass.zero(lat) if target is None else GradedClass.basis(lat, target)
            assert cup(GradedClass.basis(lat, atom), GradedClass.basis(lat, fid)) == expected


def test_good_and_orbits_and_cup(capsys):
    assert main(["good", "A2"]) == 0
    out = capsys.readouterr().out
    assert out.count("flat") == 3 and "A1" in out

    assert main(["good", "B2", "--bds"]) == 0
    assert "nodes" in capsys.readouterr().out

    assert main(["good", "A3", "--classical-param"]) == 0
    assert "param" in capsys.readouterr().out

    assert main(["orbits", "B2"]) == 0
    out = capsys.readouterr().out
    assert "|W| = 8" in out and "4 classes" in out

    assert main(["cup", "A2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| atom | flat | product |")

    assert main(["cup", "A2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "A2" and len(payload["products"]) == 3 * 5


# A usage error, --help, then commands that read their parsed options.
ONE_PROCESS_CALLS = [
    ["betti"],
    ["--help"],
    ["betti", "A3", "--compare"],
    ["member", "A2", "--point", "-1,1,inf"],
    ["betti", "A3", "--method", "enum"],
]


def test_one_parser_serves_each_call_as_a_fresh_process(monkeypatch, capsys):
    # argparse wraps usage and help text to COLUMNS; both sides read the same.
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser() is cli.build_parser()
    codes = []
    for argv in ONE_PROCESS_CALLS:
        codes.append(main(argv))
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (codes[-1], out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes == [2, 0, 0, 0, 0]


def test_verify_commands(capsys):
    for name in ["A3", "B2", "G2"]:
        assert main(["verify", name, "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "checks passed" in out


def _count_walks(monkeypatch):
    """Record the ranks of each BFS of the walk, one list per call; every walk goes through flats._bfs."""
    walked = []

    def counting(rs, ranks):
        walked.append(list(ranks))
        return _bfs(rs, ranks)

    monkeypatch.setattr("coxstrata.flats._bfs", counting)
    return walked


@pytest.mark.parametrize("name", ["B3", "F4", "E6"])
def test_a_lattice_from_levels_and_covers_walks_once(name, lattice_of, monkeypatch):
    rs, lat = lattice_of(name)
    walked = _count_walks(monkeypatch)
    levels = [[lat.flats[i].mask for i in ids] for ids in lat.by_rank]
    bare = IntersectionLattice(rs, levels, lat.covers)
    for k in [rs.rank, 1, *range(rs.rank + 1)]:
        got, kept = bare.level(k), lat.level(k)
        assert got.first == kept.first and got.orbits == kept.orbits
        assert np.array_equal(got.keys, kept.keys) and np.array_equal(got.label, kept.label)
    assert walked == [list(range(rs.rank + 1))]


@pytest.mark.parametrize("argv", [["verify", "D4"], ["verify", "E6", "--level", "full"]])
def test_verify_walks_each_rank_once(argv, monkeypatch, capsys):
    # The lattice keeps its walk, and the goodsub and Weyl checks read it.
    walked = _count_walks(monkeypatch)
    assert main(argv) == 0
    rank = build_root_system(argv[1]).rank
    assert walked == [list(range(rank + 1))]
    assert "FAIL" not in capsys.readouterr().out


def test_highest_root_dominates_fails_on_a_root_above_theta(monkeypatch, capsys):
    # A fresh root system, not the cached one: B3's root (0, 1, 2) becomes
    # (0, 0, 3), above theta = (1, 2, 2) at the last simple root, at the same height.
    rs = RootSystem(CartanType.parse("B3"))
    i = rs.simple_coefficients.index((0, 1, 2))
    rs.simple_coefficients[i] = (0, 0, 3)
    monkeypatch.setattr("coxstrata.flats.build_root_system", lambda ctype: rs)
    assert main(["verify", "B3"]) == 1
    assert "FAIL B3:highest-root-dominates" in capsys.readouterr().out.splitlines()


def test_verify_labels_checks_with_the_canonical_type(capsys):
    assert main(["verify", "a2"]) == 0
    checks = capsys.readouterr().out.splitlines()[:-1]
    assert checks and all(line.startswith("PASS A2:") for line in checks)


@pytest.mark.parametrize(
    "argv, hint",
    [
        (["betti", "A3", "--method", "enum"], True),
        (["lattice", "A3"], True),
        (["member", "A3", "--point", "1,2,3,4,5,6"], True),
        (["good", "A3"], True),
        (["orbits", "A3"], True),
        (["cup", "A3"], False),
        (["verify", "A3"], True),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_budget_error_names_allow_huge_only_where_it_lifts_the_budget(argv, hint, monkeypatch, capsys):
    monkeypatch.setattr("coxstrata.flats.DEFAULT_FLAT_BUDGET", 1)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: flat budget 1 exceeded")
    assert ("--allow-huge" in err) == hint
    assert "max_flats" not in err


def _no_lattice(*args, **kwargs):
    raise AssertionError("verify built a lattice")


@pytest.fixture
def closed_form_counts(monkeypatch):
    """Stand in for the E7/E8 sweep: closed-form counts, same budget rule."""
    from coxstrata.betti import betti_row_closed_form

    budgets = []

    def fake(rs, *, max_flats):
        budgets.append(max_flats)
        counts = list(reversed(betti_row_closed_form(rs.ctype)))
        if max_flats is not None and sum(counts) > max_flats:
            raise ResourceLimit(f"flat budget {max_flats} exceeded")
        return counts

    monkeypatch.setattr("coxstrata.verify.build_lattice", _no_lattice)
    monkeypatch.setattr("coxstrata.verify.enumerate_rank_counts", fake)
    return budgets


def test_verify_e7_reads_rank_counts_only(closed_form_counts, monkeypatch, capsys):
    # With no lattice, the orbit checks walk each rank once.
    walked = _count_walks(monkeypatch)
    assert main(["verify", "E7"]) == 0
    assert walked == [list(range(8))]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [
        f"PASS E7:{name}"
        for name in [
            "positive-count",
            "labels-sum-to-highest",
            "highest-root-dominates",
            "reflection-permutes-roots",
            "reflection-involutive",
            "self-reflection-negates",
            "closure-props-0",
            "closure-props-1",
            "closure-props-2",
            "betti-row-matches-closed-form",
            "rank1-flats-are-root-lines",
            "unique-bottom-and-top",
            "orbit-sizes-sum-to-rank-counts",
            "orbit-stabilizer-relation",
            "class-count-bound",
        ]
    ]
    assert lines[-1] == "15/15 checks passed"


def test_verify_e8_budget_follows_allow_huge(closed_form_counts, monkeypatch, capsys):
    # Stand in for the E8 orbit walk (about a minute): record the counts it gets.
    seen = []

    def weyl_checks(rs, counts, levels):
        seen.append(counts)
        names = ["orbit-sizes-sum-to-rank-counts", "orbit-stabilizer-relation", "class-count-bound"]
        return [(name, True, "") for name in names]

    monkeypatch.setattr("coxstrata.verify.weyl_checks", weyl_checks)
    assert main(["verify", "E8", "--allow-huge"]) == 0
    assert closed_form_counts == [None]
    assert seen == [list(reversed(EXCEPTIONAL_ROWS["E8"]))]
    assert capsys.readouterr().out.endswith("15/15 checks passed\n")
    assert main(["verify", "E8"]) == 2
    assert capsys.readouterr().err.endswith("(use --allow-huge to opt in)\n")


def test_verify_fails_when_the_sweep_disagrees_with_the_walk(monkeypatch, capsys):
    # A lattice type gets its counts from the closure sweep, the route
    # independent of the walk that builds its lattice and orbit table.
    def one_flat_short(rs, *, max_flats):
        counts = build_lattice(rs).rank_counts
        return counts[:2] + [counts[2] - 1] + counts[3:]

    monkeypatch.setattr("coxstrata.verify.enumerate_rank_counts", one_flat_short)
    assert main(["verify", "A3"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == [
        "FAIL A3:betti-row-matches-closed-form  [[1, 6, 6, 1], [1, 7, 6, 1]]",
        "FAIL A3:bell-row-sum  sum=14",
        "FAIL A3:orbit-sizes-sum-to-rank-counts  [1, 6, 7, 1]",
    ]


@pytest.mark.parametrize(
    "argv",
    [["member", "A3", "--point", "1,2,3,4,5,6"], ["good", "A3"], ["orbits", "A3"]],
    ids=lambda argv: argv[0],
)
def test_allow_huge_lifts_the_budget_of_the_walking_commands(argv, monkeypatch, capsys):
    assert main(argv) == 0
    expected = capsys.readouterr().out
    budgets = []
    monkeypatch.setattr("coxstrata.flats.check_flat_budget", lambda rs, cap: budgets.append(cap))
    assert main([*argv, "--allow-huge"]) == 0
    assert capsys.readouterr().out == expected
    assert budgets == [None]


def test_verify_allow_huge_lifts_the_lattice_budget(monkeypatch):
    budgets = []

    def recording(rs, *, max_flats):
        budgets.append(max_flats)
        return build_lattice(rs, max_flats=max_flats)

    monkeypatch.setattr("coxstrata.verify.build_lattice", recording)
    assert main(["verify", "A3", "--allow-huge"]) == 0
    assert budgets == [None]


def test_outputs_byte_identical_across_runs():
    for args in (
        ["rootinfo", "B3", "--json"],
        ["betti", "D5"],
        ["lattice", "A4", "--export", "json"],
        ["orbits", "B3"],
    ):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0, args
        assert a.stdout == b.stdout, args


@pytest.mark.parametrize("text", ["a3", " A3 ", "A 3", "a03", "A3\t"])
def test_type_is_read_by_the_cartan_type_grammar(text, capsys):
    assert main(["betti", text]) == 0
    assert capsys.readouterr().out == "1 7 6 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("A1xA2", "type must look like A3, B4, E8; got 'A1xA2'"),
        ("a1 x a2", "type must look like A3, B4, E8; got 'a1 x a2'"),
        ("A3x", "cannot parse type string 'A3x'"),
        ("3A", "cannot parse type string '3A'"),
        ("H3", "unknown family 'H'"),
        ("E9", "E9 is not a valid type"),
        ("", "cannot parse type string ''"),
        ("A\u00b2", "cannot parse type string 'A\u00b2'"),
        ("A\u0663", "cannot parse type string 'A\u0663'"),
    ],
)
def test_malformed_or_reducible_type_is_a_usage_error(text, message, capsys):
    for argv in (["betti", text], ["rootinfo", text], ["verify", text]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys):
    result = run_cli("betti")
    assert result.returncode == 2
    result = run_cli("nonsense")
    assert result.returncode == 2
    assert main(["cup", "A2", "--table"]) == 2
    # Path("") is the working directory, where the cache file would land.
    monkeypatch.chdir(tmp_path)
    assert main(["lattice", "A2", "--cache-dir", ""]) == 2
    assert capsys.readouterr().err.endswith("error: --cache-dir needs a directory, not an empty path\n")
    assert not any(tmp_path.iterdir())


ORBITS_OUTPUT = {
    "B3": """\
type B3: |W| = 48, 7 classes
  rank 0: rep flat 0  orbit 1  stabilizer 48  type 1
  rank 1: rep flat 1  orbit 3  stabilizer 16  type A1
  rank 1: rep flat 2  orbit 6  stabilizer 8  type A1
  rank 2: rep flat 10  orbit 6  stabilizer 8  type A1xA1
  rank 2: rep flat 11  orbit 4  stabilizer 12  type A2
  rank 2: rep flat 13  orbit 3  stabilizer 16  type B2
  rank 3: rep flat 23  orbit 1  stabilizer 48  type B3
""",
    "F4": """\
type F4: |W| = 1152, 12 classes
  rank 0: rep flat 0  orbit 1  stabilizer 1152  type 1
  rank 1: rep flat 1  orbit 12  stabilizer 96  type A1
  rank 1: rep flat 2  orbit 12  stabilizer 96  type A1
  rank 2: rep flat 25  orbit 72  stabilizer 16  type A1xA1
  rank 2: rep flat 28  orbit 16  stabilizer 72  type A2
  rank 2: rep flat 32  orbit 16  stabilizer 72  type A2
  rank 2: rep flat 33  orbit 18  stabilizer 64  type B2
  rank 3: rep flat 147  orbit 48  stabilizer 24  type A1xA2
  rank 3: rep flat 148  orbit 48  stabilizer 24  type A1xA2
  rank 3: rep flat 154  orbit 12  stabilizer 96  type B3
  rank 3: rep flat 161  orbit 12  stabilizer 96  type C3
  rank 4: rep flat 267  orbit 1  stabilizer 1152  type F4
""",
}


@pytest.mark.parametrize("name", sorted(ORBITS_OUTPUT))
def test_orbits_builds_loads_and_saves_no_lattice(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("coxstrata.cli.build_lattice", _refuse_to_build)
    monkeypatch.setattr("coxstrata.cli.load_lattice_cache", _refuse_to_build)
    monkeypatch.setattr("coxstrata.cli.save_lattice_cache", _refuse_to_build)
    assert main(["orbits", name]) == 0
    assert capsys.readouterr().out == ORBITS_OUTPUT[name]
    assert not any(tmp_path.iterdir())


# Outputs recorded from the lattice-based commands, before `good` and `member`
# took their flat ids from the orbit walk.
WALK_COMMAND_OUTPUT = {
    "good B3": """\
flat 10: A1xA1 positives [0, 2]
flat 11: A2 positives [1, 2, 4]
flat 12: A1xA1 positives [3, 4]
flat 13: B2 positives [0, 1, 3, 5]
flat 14: A1xA1 positives [1, 6]
flat 15: A1xA1 positives [5, 6]
flat 16: A1xA1 positives [3, 7]
flat 17: A2 positives [2, 5, 7]
flat 18: B2 positives [0, 4, 6, 7]
flat 19: A1xA1 positives [0, 8]
flat 20: A2 positives [4, 5, 8]
flat 21: B2 positives [2, 3, 6, 8]
flat 22: A2 positives [1, 7, 8]
""",
    "good A3 --classical-param": """\
flat 7: A1xA1 positives [0, 2]  param [(1, 1), (3, 3)]
flat 8: A2 positives [0, 1, 3]  param [(2, 2), (3, 3)]
flat 9: A2 positives [1, 2, 4]  param [(1, 1), (2, 2)]
flat 10: A1xA1 positives [3, 4]  param [(1, 2), (2, 3)]
flat 11: A1xA1 positives [1, 5]  param [(1, 3), (2, 2)]
flat 12: A2 positives [2, 3, 5]  param [(1, 1), (2, 3)]
flat 13: A2 positives [0, 4, 5]  param [(1, 2), (3, 3)]
""",
    "good G2": "".join(f"flat {i + 1}: A1 positives [{i}]\n" for i in range(6)),
    "member A3 --point -1,2,1,3,2,1": "not in variety: finite values violate a root relation\n",
    "member A2 --point 1,2,inf": "not in variety: finite support is not span-closed\n",
    "member G2 --point 5,inf,inf,inf,inf,inf": (
        "stratum rank 1 (flat 1, codimension 1), witness on positions [0]\n"
    ),
    "member B3 --point inf,inf,inf,inf,7/3,-19/6,inf,inf,-5/6": (
        "stratum rank 2 (flat 20, codimension 1), witness on positions [4, 5]\n"
    ),
    "member C3 --point inf,inf,-3/2,1,inf,inf,-1/2,inf,inf": (
        "stratum rank 2 (flat 14, codimension 1), witness on positions [2, 3]\n"
    ),
    "member D4 --point 2,-8,5,-2/3,7,-3,13/3,-1,19/3,-11/3,-5/3,10/3": (
        "stratum rank 4 (flat 71, codimension 0), witness on positions [0, 1, 2, 3]\n"
    ),
    "member F4 --point " + ",".join(
        {3: "23/3", 10: "-16/3", 14: "7/3", 17: "10"}.get(p, "inf") for p in range(24)
    ): "stratum rank 2 (flat 80, codimension 2), witness on positions [3, 10]\n",
}


# SHA-256 of outputs recorded before `classify_subsystem` and
# `additive_closure` read the root system's pair-sum table.
WALK_COMMAND_SHA256 = {
    "good G2 --bds": "6613b23cc58a7ce08d0c81656abfe018f941f5fdf8326ec68e909c42b2c082a3",
    "good F4 --bds": "fbe578bedfba7c4244ff52e3d051316421df87d0ea2e2fc1c21f76c626cd9e6c",
    "good E6 --bds": "9b808b62ec5eee6377329d4ed9fe8235a69d0fec27dfb2940a768671562fa949",
    "good E7 --bds": "23fe24acffc01b4e637a06e8e0856924a8701a76d3d421c186209bab61c5f019",
    "good E8 --bds": "8c59a1355bfc02f6692b5791090365c02bb2b3cb66e2d59a69b40f294d42ae91",
    "good A4 --classical-param": "51abac0b9fb2fc0f1ebd1bdb47e7b66412f3990095bf9331a12dc54aea9c4b1e",
    "good B4 --classical-param": "37199c0565eeb8853b6c89766706bbaf012e6997ebc02d7bca8a256d913b1aff",
    "good C4 --classical-param": "84152b0d90c767999ed1515cc7a630028d0feacd9b51e31532f6ee62c60034cc",
    "good D5 --classical-param": "a7969514bf0b300a5dd2e561abd465a6a440427dcdd97da5f76043d9a26d408b",
}


@pytest.mark.parametrize("command", sorted(WALK_COMMAND_OUTPUT) + sorted(WALK_COMMAND_SHA256))
def test_member_and_good_build_load_and_save_no_lattice(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("coxstrata.cli.build_lattice", _refuse_to_build)
    monkeypatch.setattr("coxstrata.cli.load_lattice_cache", _refuse_to_build)
    monkeypatch.setattr("coxstrata.cli.save_lattice_cache", _refuse_to_build)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    if command in WALK_COMMAND_OUTPUT:
        assert out == WALK_COMMAND_OUTPUT[command]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == WALK_COMMAND_SHA256[command]
    assert not any(tmp_path.iterdir())


# Every type of at most 5,000 flats among those `good` is run on.
GOOD_TYPES = [
    name
    for name in [f"A{r}" for r in range(1, 9)]
    + [f"{fam}{r}" for fam in "BC" for r in range(2, 8)]
    + [f"D{r}" for r in range(3, 8)]
    + ["G2", "F4", "E6", "E7"]
    if sum(betti_row_closed_form(name)) <= 5000
]


@pytest.mark.parametrize("name", GOOD_TYPES)
def test_good_equals_per_flat_classification(name, capsys):
    rs = build_root_system(name)
    first, level = flat_level(rs, rs.rank - 1)
    expected = "".join(
        f"flat {fid}: {classify_subsystem(rs, mask)} positives {rs.positions(mask)}\n"
        for fid, mask in enumerate(level, first)
    )
    assert main(["good", name]) == 0
    assert capsys.readouterr().out == expected


def test_member_mask_missing_from_its_level_is_an_invariant_violation(monkeypatch, capsys):
    monkeypatch.setattr("coxstrata.cli.flat_id", lambda rs, k, mask: None)
    assert main(["member", "A2", "--point", "1,2,3"]) == 2
    assert capsys.readouterr().err == "error: stratum mask 7 is not a rank-2 flat\n"


@pytest.mark.parametrize("name", ["G2", "E7", "E8"])
def test_good_classical_param_refuses_exceptional_types_before_any_walk(
    name, monkeypatch, capsys
):
    monkeypatch.setattr("coxstrata.flats._images", _refuse_to_build)
    monkeypatch.setattr("coxstrata.cli.build_lattice", _refuse_to_build)
    assert main(["good", name, "--classical-param"]) == 2
    assert capsys.readouterr().err == f"error: {name} is not classical\n"


def _no_sweep(*args, **kwargs):
    raise AssertionError("the flat sweep started")


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "E8", "--method", "enum"],
        ["verify", "E8"],
        ["member", "E8", "--point", ",".join(["inf"] * 120)],
        ["good", "E8"],
        ["orbits", "E8"],
        ["cup", "E8"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_over_budget_e8_is_refused_before_any_enumeration(argv, monkeypatch, capsys):
    monkeypatch.setattr("coxstrata.flats._sweep", _no_sweep)
    monkeypatch.setattr("coxstrata.flats._images", _no_sweep)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: flat budget 120000 exceeded: E8 has 5506504 flats")


def _unbuildable(ctype):
    raise AssertionError(f"the root system of {ctype} was built")


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "A150", "--method", "enum"],
        ["lattice", "A150"],
        ["good", "A150"],
        ["orbits", "A150"],
        ["member", "A150", "--point", "1"],
        ["cup", "A150"],
        ["verify", "A150"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_over_budget_type_is_refused_before_its_root_system_is_built(argv, monkeypatch, capsys):
    # A150's root system takes minutes to build; its closed-form count, a
    # millisecond.  member is refused before its one-coordinate point is read.
    # Both names: the gate's, and the cli's own for the commands that enumerate nothing.
    monkeypatch.setattr("coxstrata.flats.build_root_system", _unbuildable)
    monkeypatch.setattr("coxstrata.cli.build_root_system", _unbuildable)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: flat budget 120000 exceeded: A150 has ")


@pytest.mark.parametrize(
    "argv",
    [["betti", "A150"], ["betti", "A12", "--method", "series"], ["good", "A12", "--bds"], ["rootinfo", "A12"]],
    ids=" ".join,
)
def test_commands_that_enumerate_no_flats_have_no_budget(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_good_bds_builds_no_lattice(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("coxstrata.cli.build_lattice", _refuse_to_build)
    assert main(["good", "B3", "--bds"]) == 0
    assert "nodes" in capsys.readouterr().out
    assert not any(tmp_path.iterdir())


def _save_version_1_cache(lat, path):
    """The version-1 layout: a named header and a root-order checksum, no payload digest."""
    rs = lat.rs
    name = str(rs.ctype).encode()
    order = b"|".join(b",".join(str(x).encode() for x in rs.roots[i]) for i in rs.positives)
    blob = [b"CXLT", struct.pack("<IH", 1, len(name)), name]
    blob += [struct.pack("<IIQ", rs.rank, rs.d, len(lat.flats)), hashlib.sha256(order).digest()]
    blob += [bytes([f.rank]) + f.mask.to_bytes((rs.d + 7) // 8, "little") for f in lat.flats]
    blob += [struct.pack("<Q", len(lat.covers))]
    blob += [struct.pack("<II", lo, hi) for lo, hi in lat.covers]
    path.write_bytes(b"".join(blob))


def _save_version_2_cache(lat, path):
    """The version-2 layout: one digest, then the flat count, each flat's rank and mask, the covers."""
    rs = lat.rs
    order = b"|".join(b",".join(str(x).encode() for x in rs.roots[i]) for i in rs.positives)
    payload = struct.pack("<Q", len(lat.flats))
    payload += b"".join(bytes([f.rank]) + f.mask.to_bytes((rs.d + 7) // 8, "little") for f in lat.flats)
    payload += b"".join(struct.pack("<II", lo, hi) for lo, hi in lat.covers)
    path.write_bytes(b"CXLT" + struct.pack("<I", 2) + hashlib.sha256(order + payload).digest() + payload)


def _count_builds(monkeypatch):
    built = []

    def counting(rs, **kwargs):
        built.append(str(rs.ctype))
        return build_lattice(rs, **kwargs)

    monkeypatch.setattr("coxstrata.cli.build_lattice", counting)
    return built


def test_corrupt_or_old_cache_is_rebuilt(tmp_path, monkeypatch, capsys):
    argv = ["lattice", "B3", "--export", "json", "--cache-dir", str(tmp_path / "cache")]
    rs, path = build_root_system("B3"), tmp_path / "cache" / "B3.cxlt"
    assert main(argv) == 0
    expected = capsys.readouterr().out
    good = path.read_bytes()
    for i in range(len(good)):
        flipped = bytearray(good)
        flipped[i] ^= 1 << (i % 8)
        # a fresh file each time: rewriting one file hundreds of times is slow on ext4
        corrupt = tmp_path / f"flipped-{i}.cxlt"
        corrupt.write_bytes(bytes(flipped))
        assert load_lattice_cache(rs, corrupt) is None, i
    path.write_bytes(bytes(flipped))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert path.read_bytes() == good

    built = _count_builds(monkeypatch)
    for save_old in (_save_version_1_cache, _save_version_2_cache):
        save_old(build_lattice(rs), path)
        assert load_lattice_cache(rs, path) is None
        built.clear()
        assert main(argv) == 0
        assert built == ["B3"]
        assert capsys.readouterr().out == expected
        assert path.read_bytes() == good
    # The version-2 helper writes the bytes that the version-2 writer gave B3.
    _save_version_2_cache(build_lattice(rs), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "aa17da3c5e893c9a0c5e5f8128fc63859a142b402b0064bd069e574e18beb6c6"
    )


@pytest.mark.parametrize("damage", ["torn last pair", "cover id past the last flat"])
def test_a_malformed_cache_with_a_valid_digest_is_rebuilt(damage, tmp_path, monkeypatch, capsys):
    argv = ["lattice", "B3", "--export", "json", "--cache-dir", str(tmp_path)]
    rs, path = build_root_system("B3"), tmp_path / "B3.cxlt"
    assert main(argv) == 0
    expected, good = capsys.readouterr().out, path.read_bytes()
    if damage == "torn last pair":
        payload = good[40:-3]
    else:
        lat = build_lattice(rs)
        covers = [*lat.covers[:-1], (lat.covers[-1][0], len(lat.flats))]
        payload = np.array(covers, dtype="<u4").tobytes()
    path.write_bytes(cli._cache_header(rs, payload) + payload)
    assert load_lattice_cache(rs, path) is None
    built = _count_builds(monkeypatch)
    assert main(argv) == 0
    assert built == ["B3"]
    assert capsys.readouterr().out == expected
    assert path.read_bytes() == good


def test_a_failed_cache_rename_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    assert main(["lattice", "A3", "--export", "csv"]) == 0
    expected = capsys.readouterr().out

    def refuse(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert main(["lattice", "A3", "--export", "csv", "--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err.startswith("warning: lattice cache not written: cannot rename")
    assert not any(tmp_path.iterdir())


def test_unwritable_cache_still_answers(tmp_path, capsys):
    blocker = tmp_path / "a-regular-file"
    blocker.write_text("")
    for argv in (["lattice", "A3"], ["lattice", "A3", "--export", "csv"]):
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert main([*argv, "--cache-dir", str(blocker / "cache")]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert "lattice cache not written" in captured.err
