import numpy as np
import pytest

from essnorm_lab.measure import TailDescriptor, build_space


class TestBuildSpace:
    def test_purely_atomic(self):
        space = build_space((1, 0.5, 0.25))
        assert space.dimension == 3
        assert space.n_atoms == 3
        assert not space.has_diffuse
        np.testing.assert_array_equal(space.masses, [1.0, 0.5, 0.25])

    def test_dyadic_split(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=3)
        assert space.dimension == 8
        assert space.cell_mass == 1.0 / 8.0
        np.testing.assert_array_equal(space.masses, np.full(8, 0.125))

    def test_mixed(self):
        space = build_space((1.0,), diffuse_interval=(0.0, 1.0), diffuse_level=0)
        assert space.dimension == 2
        np.testing.assert_array_equal(space.masses, [1.0, 1.0])

    @pytest.mark.parametrize("mass", [0.0, -1.0])
    def test_nonpositive_mass_rejected(self, mass):
        with pytest.raises(ValueError, match="positive"):
            build_space((1.0, mass))

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, "-2.5"])
    def test_first_bad_mass_named(self, bad):
        # one array test over all masses; the error names the first bad one,
        # as float() reads it, and not the bad masses after it
        with pytest.raises(ValueError) as info:
            build_space([1.0, 2.0, bad, -7.0, np.nan])
        assert str(info.value) == f"atom masses must be positive and finite, got {float(bad)}"

    def test_masses_kept_as_a_tuple_of_floats(self):
        space = build_space(np.array([0.5, 2.0]))
        assert space.atom_masses == (0.5, 2.0)
        assert all(type(m) is float for m in space.atom_masses)

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError, match="positive length"):
            build_space(diffuse_interval=(1.0, 0.0))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match="positive length"):
            build_space(diffuse_interval=(0.5, 0.5))

    @pytest.mark.parametrize(
        "interval, level",
        [((-1e308, 1e308), 0), ((0.0, 5e-324), 1), ((0.0, 1.0), 1100)],
        ids=["inf", "zero", "deep"],
    )
    def test_cell_mass_not_positive_and_finite_rejected(self, interval, level):
        with pytest.raises(ValueError, match="positive, finite mass"):
            build_space(diffuse_interval=interval, diffuse_level=level)

    def test_refine_below_least_cell_mass_rejected(self):
        space = build_space(diffuse_interval=(0.0, 5e-324))
        assert space.cell_mass == 5e-324
        with pytest.raises(ValueError, match="positive, finite mass"):
            space.refine()

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            build_space(())

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            build_space(diffuse_interval=(0, 1), diffuse_level=-1)


class TestRefine:
    def test_single_halving(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=0)
        fine = space.refine()
        assert fine.diffuse_level == 1
        assert fine.n_cells == 2
        np.testing.assert_array_equal(fine.masses, [0.5, 0.5])

    def test_refine_twice_from_level_one(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=1)
        fine = space.refine().refine()
        assert fine.diffuse_level == 3
        assert fine.n_cells == 8
        assert fine.cell_mass == 0.125

    def test_atoms_unchanged(self):
        space = build_space((2.0, 3.0), diffuse_interval=(0.0, 2.0), diffuse_level=2)
        fine = space.refine()
        assert fine.atom_masses == (2.0, 3.0)

    def test_purely_atomic_rejected(self):
        space = build_space((1.0,))
        with pytest.raises(ValueError, match="indivisible"):
            space.refine()

    def test_mass_preserved_exactly(self):
        space = build_space(diffuse_interval=(0.25, 0.75), diffuse_level=0)
        for _ in range(6):
            space = space.refine()
            assert float(np.sum(space.masses)) == 0.5

    def test_dimension_formula(self):
        space = build_space((1.0, 1.0), diffuse_interval=(0, 1), diffuse_level=2)
        for k in range(5):
            assert space.dimension == 2 + 2 ** (2 + k)
            space = space.refine()


class TestTailDescriptor:
    def test_limsup_harmonic(self):
        tail = TailDescriptor.harmonic_limit(1.0)
        assert tail.limsup_abs() == 1.0

    def test_limsup_finitely_supported(self):
        tail = TailDescriptor.finitely_supported()
        assert tail.limsup_abs() == 0.0

    def test_limsup_alternating(self):
        tail = TailDescriptor.alternating(2.0, -3.0)
        assert tail.limsup_abs() == 3.0

    def test_limsup_constant(self):
        assert TailDescriptor.constant_limit(-0.5).limsup_abs() == 0.5

    def test_values(self):
        tail = TailDescriptor.harmonic_limit(1.0)
        assert tail.value(1) == 2.0
        assert tail.value(4) == 1.25
        alt = TailDescriptor.alternating(2.0, -3.0)
        assert [alt.value(n) for n in (1, 2, 3)] == [2.0, -3.0, 2.0]
        assert TailDescriptor.finitely_supported().value(10) == 0.0

    @pytest.mark.parametrize(
        "tail",
        [
            TailDescriptor.finitely_supported(),
            TailDescriptor.constant_limit(-0.0),
            TailDescriptor.constant_limit(-2.5),
            TailDescriptor.harmonic_limit(-0.0, -0.0),
            TailDescriptor.harmonic_limit(-1.0, 3.0),
            TailDescriptor.harmonic_limit(0.1, -1e-300),
            TailDescriptor.alternating(-0.0, 0.0),
            TailDescriptor.alternating(-3.0, 7.25),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
    def test_values_match_value_bit_for_bit(self, tail, n):
        expected = np.array([tail.value(i) for i in range(1, n + 1)], dtype=float)
        got = tail.values(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_values_of_negative_count_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            TailDescriptor.constant_limit(1.0).values(-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown tail kind"):
            TailDescriptor("geometric")

    def test_wrong_param_count_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            TailDescriptor("constant_limit", (1.0, 2.0))


class TestCellGeometry:
    def test_midpoints_exact(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=4)
        expected = (2 * np.arange(16) + 1) / 32.0
        np.testing.assert_array_equal(space.cell_midpoints, expected)

    def test_purely_atomic_space_has_no_cells(self):
        # cell_mass raises for all three
        space = build_space((1.0, 2.0))
        for read in (lambda: space.cell_mass, lambda: space.cell_midpoints, lambda: space.cell_averages(np.sin)):
            with pytest.raises(ValueError, match="purely atomic space has no cells"):
                read()

    def test_cell_average_constant(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=3)
        np.testing.assert_array_equal(space.cell_averages(lambda x: 1.0), np.ones(8))

    def test_cell_average_beyond_half_the_float_range(self):
        # the node values are halved before they are added, so a constant
        # above half the largest float averages to itself, not to inf
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=3)
        np.testing.assert_array_equal(space.cell_averages(lambda x: 1e308), np.full(8, 1e308))
        np.testing.assert_array_equal(space.cell_averages(lambda x: -1e308), np.full(8, -1e308))

    def test_cell_average_cubic_exact(self):
        # two-point Gauss integrates cubics exactly on each cell
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=2)
        got = space.cell_averages(lambda x: x**3)
        edges = np.linspace(0, 1, 5)
        exact = (edges[1:] ** 4 - edges[:-1] ** 4) / 4.0 / 0.25
        np.testing.assert_allclose(got, exact, rtol=1e-14)

    def test_array_evaluation_matches_pointwise(self):
        # one call on the node array gives the values a call per node gives
        polys = [np.polynomial.Polynomial(c) for c in np.random.default_rng(4).uniform(-1, 1, (20, 3))]
        fns = [lambda x: x, lambda x: 1.0, lambda x: -0.375, lambda x: x**3, *polys]
        for level in range(11):
            space = build_space((0.5,), diffuse_interval=(-1.0, 2.0), diffuse_level=level)
            mids = space.cell_midpoints
            d = 0.5 * space.cell_mass * (1.0 / np.sqrt(3.0))
            for fn in fns:
                f = np.vectorize(fn, otypes=[float])
                expected = 0.5 * (f(mids - d) + f(mids + d))
                got = space.cell_averages(fn)
                np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_immutability(self):
        space = build_space((1.0,), diffuse_interval=(0, 1), diffuse_level=1)
        with pytest.raises(ValueError):
            space.masses[0] = 7.0
