import numpy as np
import pytest

from conftest import ALL_REGIMES, reference_state
from mhd1d.core import (
    BoundaryCondition,
    ConstantProfile,
    FileProfile,
    GaussianBump,
    Grid,
    PhysicalParams,
    ProfileError,
    make_initial_state,
)
from mhd1d.snapshots import emit_snapshot


class TestPhysicalParams:
    @pytest.mark.parametrize("field,value", [
        ("mu1", 0.0), ("mu1", -1.0), ("kappa_tilde", 0.0), ("lam", -0.5),
        ("nu", 0.0), ("R", -2.0), ("c_v", 0.0),
        ("mu2", -0.1), ("alpha", -1.0), ("beta", -0.25),
    ])
    def test_invalid_constants_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PhysicalParams(**{field: value})

    def test_normalized_preset(self):
        p = PhysicalParams.normalized(alpha=2.0, beta=0.5)
        assert (p.mu1, p.kappa_tilde, p.lam, p.nu, p.R, p.c_v) == (1,) * 6
        assert p.mu2 == p.alpha == 2.0
        assert p.beta == 0.5
        assert p.is_normalized

    def test_general_params_not_normalized(self):
        assert not PhysicalParams(mu1=2.0).is_normalized
        assert not PhysicalParams(mu2=1.0, alpha=0.5).is_normalized

    def test_gamma(self):
        assert PhysicalParams(R=1.0, c_v=1.0).gamma == 2.0
        assert PhysicalParams(R=1.0, c_v=2.5).gamma == pytest.approx(1.4)


class TestGrid:
    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            Grid(cells=3, dx=0.5)

    def test_bad_dx(self):
        with pytest.raises(ValueError):
            Grid(cells=8, dx=0.0)

    @pytest.mark.parametrize("cells", [4, 5, 8, 13, 16])
    def test_centers_between_nodes(self, cells):
        grid = Grid.uniform(cells, cells * 0.25, -1.0)
        xn, xc = grid.nodes(), grid.centers()
        assert xn.shape == (cells + 1,)
        assert xc.shape == (cells,)
        for i in range(cells):
            assert xn[i] < xc[i] < xn[i + 1]

    def test_uniform_spacing_exact_for_binary_dx(self):
        # dx = 2^-4 and integer left edge make every node coordinate exact
        grid = Grid.uniform(512, 32.0, -16.0)
        xn = grid.nodes()
        assert np.all(np.diff(xn) == grid.dx)
        assert grid.right_edge == 16.0

    def test_mass(self):
        assert Grid.uniform(128, 32.0).mass == pytest.approx(32.0)


class TestMakeInitialState:
    @pytest.mark.parametrize("bc", ALL_REGIMES)
    def test_constant_profile_is_far_field(self, bc):
        grid = Grid.uniform(8, 4.0, 0.0)
        state = make_initial_state(grid, ConstantProfile(), bc)
        assert np.all(state.v == 1.0)
        assert np.all(state.theta == 1.0)
        assert np.all(state.u == 0.0)
        assert np.all(state.b == 0.0)
        assert np.all(state.w == 0.0)
        assert state.t == 0.0 and state.step == 0

    def test_theta_amplitude_at_positivity_edge(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        bc = BoundaryCondition.CAUCHY_FAR_FIELD
        ok = make_initial_state(grid, GaussianBump(amp_theta=-0.95), bc)
        assert ok.theta.min() > 0.0
        with pytest.raises(ProfileError, match="theta"):
            make_initial_state(grid, GaussianBump(amp_theta=-1.0), bc)

    def test_v_amplitude_at_positivity_edge(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        bc = BoundaryCondition.CAUCHY_FAR_FIELD
        make_initial_state(grid, GaussianBump(amp_v=-0.99), bc)
        with pytest.raises(ProfileError, match="v amplitude"):
            make_initial_state(grid, GaussianBump(amp_v=-1.0), bc)

    def test_file_profile_round_trip(self, tmp_path):
        grid = Grid.uniform(16, 8.0, -4.0)
        bc = BoundaryCondition.CAUCHY_FAR_FIELD
        src = make_initial_state(grid, GaussianBump(
            amp_v=0.2, amp_u=0.1, amp_theta=-0.3, amp_b=(0.05, -0.2),
            amp_w=(0.4, 0.0)), bc)
        src.t, src.step = 1.75, 42  # must be reset to zero on ingestion
        path = tmp_path / "snap.csv"
        emit_snapshot(src, grid, path)
        state = make_initial_state(grid, FileProfile(str(path)), bc)
        assert state.t == 0.0 and state.step == 0
        for name in ("v", "theta", "b", "u", "w"):
            assert np.array_equal(getattr(state, name), getattr(src, name))

    def test_file_profile_wrong_length(self, tmp_path):
        grid = Grid.uniform(16, 8.0, -4.0)
        other = Grid.uniform(8, 8.0, -4.0)
        bc = BoundaryCondition.CAUCHY_FAR_FIELD
        path = tmp_path / "snap.csv"
        emit_snapshot(reference_state(other), other, path)
        with pytest.raises(ProfileError, match="cells"):
            make_initial_state(grid, FileProfile(str(path)), bc)

    @pytest.mark.parametrize("other, message", [
        (Grid.uniform(16, 8.0, -3.0), "left_edge = -3.0, grid has -4.0"),
        (Grid.uniform(16, 32.0, -4.0), "dx = 2.0, grid has 0.5"),
    ])
    def test_file_profile_off_the_grid(self, tmp_path, other, message):
        # same cell count, other coordinates: the profile would be squeezed
        # or shifted onto the grid without complaint
        grid = Grid.uniform(16, 8.0, -4.0)
        path = tmp_path / "snap.csv"
        emit_snapshot(reference_state(other), other, path)
        with pytest.raises(ProfileError, match=message):
            make_initial_state(grid, FileProfile(str(path)),
                               BoundaryCondition.CAUCHY_FAR_FIELD)

    @pytest.mark.parametrize("bc", [BoundaryCondition.ISOTHERMAL_WALL_LEFT,
                                    BoundaryCondition.INSULATED_WALL_LEFT])
    def test_wall_incompatible_velocity_rejected(self, bc):
        grid = Grid.uniform(16, 8.0, 0.0)
        # bump centered on the wall leaves u(0) = amp_u, far above 1e-12
        bad = GaussianBump(center=0.0, width=1.0, amp_u=0.5)
        with pytest.raises(ProfileError, match="wall"):
            make_initial_state(grid, bad, bc)
        # same profile is fine for the Cauchy regime
        make_initial_state(grid, bad, BoundaryCondition.CAUCHY_FAR_FIELD)

    @pytest.mark.parametrize("bc", [BoundaryCondition.ISOTHERMAL_WALL_LEFT,
                                    BoundaryCondition.INSULATED_WALL_LEFT])
    def test_wall_compatible_interior_bump_accepted(self, bc):
        grid = Grid.uniform(64, 32.0, 0.0)
        prof = GaussianBump(center=16.0, width=1.0, amp_u=0.5,
                            amp_b=(0.3, 0.0), amp_w=(0.2, 0.2))
        state = make_initial_state(grid, prof, bc)
        assert abs(state.u[0]) <= 1e-12

    def test_validate_shape_mismatch(self, grid16):
        state = reference_state(grid16)
        state.u = state.u[:-1]
        with pytest.raises(ValueError, match="shape"):
            state.validate(grid16)

    def test_validate_positivity(self, grid16):
        state = reference_state(grid16)
        state.theta[3] = -0.5
        with pytest.raises(ValueError, match="temperature"):
            state.validate(grid16)
