from __future__ import annotations

import pytest

from coxstrata import build_lattice, build_root_system


@pytest.fixture(autouse=True)
def _private_lattice_cache(tmp_path, monkeypatch):
    """Each test gets its own empty lattice cache, never ./.coxstrata."""
    monkeypatch.setenv("COXSTRATA_CACHE", str(tmp_path / "lattice-cache"))


@pytest.fixture(scope="session")
def lattice_of():
    """Session-wide cache of (root system, lattice) pairs by type string."""
    cache = {}

    def get(type_str: str):
        if type_str not in cache:
            rs = build_root_system(type_str)
            cache[type_str] = (rs, build_lattice(rs))
        return cache[type_str]

    return get


def pos_of_coords(rs, coords):
    """Positive position of the root with the given coordinates."""
    idx = rs.index[tuple(coords)]
    return rs.pos_of.get(idx, rs.pos_of.get(rs.neg[idx]))
