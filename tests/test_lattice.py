import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernlab.lattice import (
    box_sites,
    core_sites,
    inner_boundary,
    norm_inf,
)


def test_norms_use_coefficients():
    assert norm_inf((3, -4)) == 4


def test_box_small_sides():
    b1 = box_sites(1)
    assert b1.size == 1 and tuple(b1.sites[0]) == (0, 0)
    b2 = box_sites(2)
    assert sorted(map(tuple, b2.sites)) == [(-1, -1), (-1, 0), (0, -1), (0, 0)]
    b3 = box_sites(3)
    assert b3.size == 9
    assert set(map(tuple, b3.sites)) == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}


def test_box_rejects_zero_side():
    with pytest.raises(ValueError):
        box_sites(0)


def test_box_ordering_row_major():
    b = box_sites(3)
    # g1 outermost, g2 innermost
    assert [tuple(s) for s in b.sites[:3]] == [(-1, -1), (-1, 0), (-1, 1)]
    for i, (g1, g2) in enumerate(map(tuple, b.sites)):
        assert b.index_of(g1, g2) == i
    assert b.index_of(5, 0) == -1


def brute_shell(L, r):
    """Membership-scan oracle: site is boundary iff some outside point is
    within sup-distance r."""
    off = L // 2
    inside = {(g1, g2) for g1 in range(-off, L - off) for g2 in range(-off, L - off)}
    shell = set()
    for g1, g2 in inside:
        for e1 in range(-r, r + 1):
            for e2 in range(-r, r + 1):
                if (g1 + e1, g2 + e2) not in inside:
                    shell.add((g1, g2))
    return shell


def test_inner_boundary_counts():
    # L=3, r=1: all but the center site
    assert len(inner_boundary(box_sites(3), 1)) == 8
    # L=5, r=1: outermost ring, 25 - 9
    assert len(inner_boundary(box_sites(5), 1)) == 16
    # L=5, r=2: brute-force membership scan leaves only the center out -> 24
    assert len(inner_boundary(box_sites(5), 2)) == 24


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=4))
@settings(max_examples=60)
def test_inner_boundary_matches_bruteforce(L, r):
    got = {tuple(s) for s in inner_boundary(box_sites(L), r)}
    assert got == brute_shell(L, r)


@given(st.integers(min_value=3, max_value=9), st.integers(min_value=1, max_value=3))
@settings(max_examples=40)
def test_boundary_complement_is_deep(L, r):
    box = box_sites(L)
    shell = {tuple(s) for s in inner_boundary(box, r)}
    interior = [tuple(s) for s in box.sites if tuple(s) not in shell]
    for g1, g2 in interior:
        for e1 in range(-r, r + 1):
            for e2 in range(-r, r + 1):
                assert box.index_of(g1 + e1, g2 + e2) >= 0


def test_core_sites_examples():
    assert core_sites(box_sites(7), 1).L == 3
    assert core_sites(box_sites(13), 1).L == 5
    assert core_sites(box_sites(19), 1).L == 7
    assert core_sites(box_sites(10), 1).L == 4
    with pytest.raises(ValueError):
        core_sites(box_sites(9), 1)
    with pytest.raises(ValueError):
        core_sites(box_sites(4), 1)


def test_core_inside_box_and_disjoint_from_shell():
    for L, r in [(7, 1), (13, 1), (19, 1), (11, 2)]:
        box = box_sites(L)
        core = core_sites(box, r)
        box_set = {tuple(s) for s in box.sites}
        core_set = {tuple(s) for s in core.sites}
        assert core_set <= box_set
        shell = {tuple(s) for s in inner_boundary(box, r)}
        assert not (core_set & shell)
