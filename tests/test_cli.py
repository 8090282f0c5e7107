from __future__ import annotations

import json
import subprocess
import sys
from coxstrata.cli import load_lattice_cache, main, save_lattice_cache
from coxstrata.flats import build_lattice
from coxstrata.rootsys import build_root_system


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


def test_betti_methods(capsys):
    assert main(["betti", "B3", "--method", "enum"]) == 0
    assert capsys.readouterr().out.strip() == "1 13 9 1"
    assert main(["betti", "B3", "--method", "series"]) == 0
    assert capsys.readouterr().out.strip() == "1 13 9 1"
    # series is classical-only
    assert main(["betti", "G2", "--method", "series"]) == 2


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
    assert main(["lattice", "A2", "--export", "json", "--no-cache"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"type", "rank", "d", "flats", "covers"}
    assert len(payload["flats"]) == 5
    assert all(set(f) == {"id", "rank", "positive_roots", "cartan_type"} for f in payload["flats"])
    ranks = [f["rank"] for f in payload["flats"]]
    assert ranks == sorted(ranks)
    for lo, hi in payload["covers"]:
        assert payload["flats"][hi]["rank"] == payload["flats"][lo]["rank"] + 1


def test_lattice_csv(capsys):
    assert main(["lattice", "B2", "--export", "csv", "--no-cache"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("id,rank,cartan_type")
    assert len(lines) == 1 + 6


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


def test_lattice_command_uses_cache(tmp_path, capsys):
    args = ["lattice", "A3", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert (tmp_path / "A3.cxlt").exists()
    assert main(args) == 0
    assert capsys.readouterr().out == first


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

    assert main(["cup", "A2", "--table"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| atom | flat | product |")

    assert main(["cup", "A2", "--table", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "A2" and len(payload["products"]) == 3 * 5


def test_verify_commands(capsys):
    for name in ["A3", "B2", "G2"]:
        assert main(["verify", name, "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "checks passed" in out


def test_outputs_byte_identical_across_runs_and_threads(tmp_path):
    import os

    env1 = dict(os.environ, COXSTRATA_THREADS="1", COXSTRATA_CACHE=str(tmp_path / "c1"))
    env2 = dict(os.environ, COXSTRATA_THREADS="2", COXSTRATA_CACHE=str(tmp_path / "c2"))
    for args in (
        ["rootinfo", "B3", "--json"],
        ["betti", "D5"],
        ["lattice", "A4", "--export", "json", "--no-cache"],
        ["orbits", "B3"],
    ):
        a = run_cli(*args, env=env1)
        b = run_cli(*args, env=env1)
        c = run_cli(*args, env=env2)
        assert a.returncode == b.returncode == c.returncode == 0, args
        assert a.stdout == b.stdout == c.stdout, args


def test_usage_errors_exit_2():
    result = run_cli("betti")
    assert result.returncode == 2
    result = run_cli("nonsense")
    assert result.returncode == 2
