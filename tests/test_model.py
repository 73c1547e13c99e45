import math

import numpy as np
import pytest

from chernlab.finite_volume import restrict_periodic, restrict_simple
from chernlab.lattice import box_sites
from chernlab.model import (
    HaldaneParams,
    HoppingModel,
    _check_partners,
    check_magnetic_periodicity,
    haldane_blocks,
    haldane_model,
    hopping_norm_sum,
    model_from_json,
)

T2 = 1.0 / (3.0 * np.sqrt(3.0))


def std_model(**kw):
    return haldane_model(HaldaneParams(t1=1.0, t2=T2, phi=np.pi / 2, M=0.0, **kw))


def test_haldane_d3_stored_matrices():
    m = std_model()
    w = T2 * np.exp(-1j * np.pi / 2)  # = -i t2
    np.testing.assert_allclose(m.hoppings[(1, 0)], [[w, 1.0], [0.0, np.conj(w)]], atol=1e-15)
    np.testing.assert_allclose(m.hoppings[(0, 1)], [[w, 0.0], [1.0, np.conj(w)]], atol=1e-15)
    np.testing.assert_allclose(m.hoppings[(-1, -1)], np.diag([w, np.conj(w)]), atol=1e-15)
    np.testing.assert_allclose(m.hoppings[(0, 0)], [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    # negative displacements are the Hermitian transposes
    for d in [(1, 0), (0, 1), (-1, -1)]:
        np.testing.assert_allclose(
            m.hoppings[(-d[0], -d[1])], m.hoppings[d].conj().T, atol=1e-15
        )


def test_haldane_a3_block_value():
    m = std_model()
    np.testing.assert_allclose(
        m.hoppings[(-1, -1)], np.diag([-1j / (3 * np.sqrt(3)), 1j / (3 * np.sqrt(3))]), atol=1e-15
    )


def test_haldane_mass_enters_onsite():
    m = haldane_model(HaldaneParams(t1=1.0, t2=T2, phi=np.pi / 2, M=0.3))
    np.testing.assert_allclose(m.hoppings[(0, 0)], [[0.3, 1.0], [1.0, -0.3]], atol=1e-15)


def test_haldane_t2_zero_keeps_only_t1():
    m = haldane_model(HaldaneParams(t1=1.0, t2=0.0, phi=0.0, M=0.0))
    np.testing.assert_allclose(m.hoppings[(0, 0)], [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(m.hoppings[(-1, -1)], np.zeros((2, 2)), atol=1e-15)
    assert abs(m.hoppings[(1, 0)][0, 1] - 1.0) < 1e-15
    assert abs(m.hoppings[(1, 0)][0, 0]) < 1e-15


def test_haldane_params_validation():
    for bad in ({"t1": 0.0}, {"t2": -0.1}, {"t1": math.nan}, {"t1": math.inf},
                {"t2": math.nan}, {"t2": math.inf}, {"M": math.nan}, {"M": -math.inf}):
        with pytest.raises(ValueError):
            HaldaneParams(**bad)
    with pytest.raises(ValueError):
        HaldaneParams(phi=4.0)
    with pytest.raises(ValueError):
        HaldaneParams(dimerization="d4")


@pytest.mark.parametrize("dimerization", ["d1", "d2", "d3"])
def test_haldane_blocks_match_haldane_model_bit_for_bit(dimerization):
    phis = [-np.pi, -np.pi / 2, 0.0, 0.3, np.pi]
    ms = [m * T2 for m in (-6.0, 0.0, 4.2)]
    points = [(phi, M) for phi in phis for M in ms]
    deltas, blocks = haldane_blocks(1.0, T2, [p[0] for p in points], [p[1] for p in points],
                                    dimerization)
    assert blocks.shape == (7, len(points), 2, 2)
    for i, (phi, M) in enumerate(points):
        want = haldane_model(HaldaneParams(t1=1.0, t2=T2, phi=phi, M=M,
                                           dimerization=dimerization)).hoppings
        assert list(want) == deltas
        for delta, block in zip(deltas, blocks[:, i]):
            assert np.array_equal(block, want[delta])
            assert block.tobytes() == want[delta].tobytes()  # the signs of zeros too


def test_haldane_blocks_refuse_as_params_do():
    # a bad point anywhere in the arrays raises HaldaneParams' own message
    good = {"t1": 1.0, "t2": T2, "phi": [0.0, 1.0, -1.0], "M": [0.0, 1.0, 2.0]}
    for key, value, bad_point in (
            ("t1", 0.0, 0.0), ("t1", math.nan, math.nan), ("t2", -0.1, -0.1),
            ("t2", math.inf, math.inf), ("M", [0.0, math.nan, 1.0], math.nan),
            ("M", [0.0, 1.0, -math.inf], -math.inf), ("phi", [0.0, 4.0, 1.0], 4.0),
            ("phi", [0.0, 1.0, math.nan], math.nan), ("dimerization", "d4", "d4")):
        with pytest.raises(ValueError) as want:
            HaldaneParams(**{key: bad_point})
        with pytest.raises(ValueError) as got:
            haldane_blocks(**{**good, key: value})
        assert str(got.value) == str(want.value)


def test_stack_partner_check_reads_every_point():
    deltas, blocks = haldane_blocks(1.0, T2, np.linspace(-1.0, 1.0, 6), np.zeros(6))
    _check_partners(deltas, blocks)
    blocks[1, 4, 0, 1] += 1e-9
    with pytest.raises(ValueError, match=r"hoppings for \(1, 0\) and \(-1, 0\) are not"):
        _check_partners(deltas, blocks)


def test_dimerizations_are_spectrally_equivalent():
    # the three bond assignments give unitarily equivalent operators, so
    # their periodic restrictions must share the spectrum
    evs = []
    for nu in ("d1", "d2", "d3"):
        m = std_model(dimerization=nu)
        H = restrict_periodic(m, box_sites(6)).matrix
        evs.append(np.linalg.eigvalsh(H))
    np.testing.assert_allclose(evs[0], evs[1], atol=1e-10)
    np.testing.assert_allclose(evs[0], evs[2], atol=1e-10)


def test_constructor_rejects_broken_hermiticity():
    m = std_model()
    hop = dict(m.hoppings)
    bad = np.array(hop[(1, 0)], copy=True)
    bad[0, 1] += 0.1
    hop[(1, 0)] = bad
    with pytest.raises(ValueError):
        HoppingModel(n=2, r=1, hoppings=hop)


def test_constructor_names_the_first_failing_displacement():
    # insertion order of the reference model: (0, 0), (1, 0), (0, 1),
    # (-1, -1), (-1, 0), (0, -1), (1, 1)
    m = std_model()
    broken = dict(m.hoppings)
    broken[(0, -1)] = broken[(0, -1)] + 0.1  # partner of (0, 1), stored later
    with pytest.raises(ValueError) as err:
        HoppingModel(n=2, r=1, hoppings=broken)
    assert str(err.value) == "hoppings for (0, 1) and (0, -1) are not Hermitian partners"
    missing = dict(m.hoppings)
    del missing[(1, 1)]
    with pytest.raises(ValueError) as err:
        HoppingModel(n=2, r=1, hoppings=missing)
    assert str(err.value) == "missing reverse hopping for (-1, -1)"
    # a broken partner ahead of a missing one is reported first
    del broken[(1, 1)]
    with pytest.raises(ValueError) as err:
        HoppingModel(n=2, r=1, hoppings=broken)
    assert str(err.value) == "hoppings for (0, 1) and (0, -1) are not Hermitian partners"


def test_constructor_rejects_out_of_range_displacement():
    with pytest.raises(ValueError):
        HoppingModel(
            n=1,
            r=1,
            hoppings={(2, 0): np.eye(1), (-2, 0): np.eye(1)},
        )


def _kernel(H, box, gamma, xi):
    # the n x n block H0(gamma, xi) of a box matrix
    n = H.shape[0] // box.size
    i, j = box.index_of(*gamma), box.index_of(*xi)
    return H[n * i:n * i + n, n * j:n * j + n]


def test_kernel_matches_hoppings_at_zero_flux():
    m = std_model()
    box = box_sites(9)
    H = restrict_simple(m, box).matrix
    for d in m.hoppings:
        np.testing.assert_allclose(_kernel(H, box, (3, -2), (3 + d[0], -2 + d[1])),
                                   m.hoppings[d])
    assert np.all(_kernel(H, box, (0, 0), (2, 0)) == 0.0)
    assert np.all(_kernel(H, box, (0, 0), (1, -1)) == 0.0)  # inside range but not a stored bond


def test_kernel_hermitian_pairs_any_flux():
    # at flux B the box matrix holds exp(iB (gamma ^ xi)) H0(0, xi - gamma),
    # with gamma ^ xi = gamma2 xi1 - gamma1 xi2, and its blocks pair as adjoints
    m = std_model()
    B = 2 * np.pi / 5
    mf = HoppingModel(n=2, r=1, hoppings=dict(m.hoppings), flux=B)
    box = box_sites(9)
    H = restrict_simple(mf, box).matrix
    for g, x in [((0, 0), (1, 0)), ((2, 1), (1, 0)), ((-1, 3), (-2, 2)), ((1, 1), (1, 1)),
                 ((1, 0), (1, 1))]:
        phase = np.exp(1j * B * (g[1] * x[0] - g[0] * x[1]))
        np.testing.assert_allclose(_kernel(H, box, g, x),
                                   phase * m.hoppings[(x[0] - g[0], x[1] - g[1])], atol=1e-14)
        np.testing.assert_allclose(_kernel(H, box, g, x),
                                   _kernel(H, box, x, g).conj().T, atol=1e-14)


def test_magnetic_periodicity_haldane_zero_flux():
    assert check_magnetic_periodicity(std_model(), 9)


def test_magnetic_periodicity_detects_perturbation():
    m = std_model()
    H = restrict_simple(m, box_sites(9)).matrix
    H[4, 10] += 1e-6
    assert not check_magnetic_periodicity(m, 9, matrix=H)


def test_magnetic_periodicity_rational_flux():
    # kernel synthesized from the covariance phase itself must pass the check
    m = std_model()
    m3 = HoppingModel(n=2, r=1, hoppings=dict(m.hoppings), flux=2 * np.pi / 3)
    assert check_magnetic_periodicity(m3, 9)
    H = restrict_simple(m3, box_sites(9)).matrix
    assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_dense_spectral_radius_bound():
    m = std_model()
    bound = hopping_norm_sum(m)  # includes the on-site block
    for restrict in (restrict_simple, restrict_periodic):
        H = restrict(m, box_sites(7)).matrix
        ev = np.linalg.eigvalsh(H)
        assert np.max(np.abs(ev)) <= bound + 1e-12


def test_spectrum_symmetric_at_zero_mass_half_flux():
    for phi in (np.pi / 2, -np.pi / 2):
        m = haldane_model(HaldaneParams(t1=1.0, t2=T2, phi=phi, M=0.0))
        ev = np.linalg.eigvalsh(restrict_periodic(m, box_sites(8)).matrix)
        np.testing.assert_allclose(ev, -ev[::-1], atol=1e-10)


def test_model_from_json_haldane():
    m = model_from_json({"type": "haldane", "t1": 1.0, "t2": T2, "phi": np.pi / 2, "M": 0.0})
    ref = std_model()
    for d in sorted(ref.hoppings):
        np.testing.assert_allclose(m.hoppings[d], ref.hoppings[d])


def test_model_from_json_custom_fills_reverse():
    doc = {
        "type": "custom",
        "n": 1,
        "r": 1,
        "B": 0.0,
        "hoppings": [
            {"dg1": 1, "dg2": 0, "matrix": [[[0.0, -0.5]]]},
            {"dg1": 0, "dg2": 0, "matrix": [[[2.0, 0.0]]]},
        ],
    }
    m = model_from_json(doc)
    np.testing.assert_allclose(m.hoppings[(-1, 0)], [[0.5j]])
    np.testing.assert_allclose(m.hoppings[(0, 0)], [[2.0]])
    with pytest.raises(ValueError):
        model_from_json({"type": "mystery"})
