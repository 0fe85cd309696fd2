import pytest

from impsched.energy import (
    FrequencySet,
    PowerModel,
    cheapest_frequency,
    energy_per_cycle,
    fit_power_model,
    power_at,
    DEFAULT_FREQUENCY_SET,
    DEFAULT_POWER_MODEL,
)

REFERENCE_POINTS_GHZ_MW = [
    (1.01, 430.9),
    (1.26, 556.8),
    (1.53, 710.7),
    (1.81, 896.5),
    (2.1, 1118.2),
]


class TestPower:
    def test_reference_constants_at_fmax(self):
        total_mw = power_at(DEFAULT_POWER_MODEL, 2.1e9) * 1e3
        assert abs(total_mw - 1394.2) / 1394.2 < 0.01

    def test_reference_dynamic_components(self):
        for f_ghz, p_mw in REFERENCE_POINTS_GHZ_MW:
            dyn_mw = (power_at(DEFAULT_POWER_MODEL, f_ghz * 1e9) - DEFAULT_POWER_MODEL.delta) * 1e3
            assert abs(dyn_mw - p_mw) / p_mw < 0.01, (f_ghz, dyn_mw, p_mw)

    def test_pure_cubic(self):
        pm = PowerModel(1.0, 3.0, 0.0, 0.0)
        assert power_at(pm, 2.0) == pytest.approx(8.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            power_at(DEFAULT_POWER_MODEL, 0.0)
        with pytest.raises(ValueError):
            energy_per_cycle(DEFAULT_POWER_MODEL, -1.0)


class TestEnergyPerCycle:
    def test_identity_with_power(self):
        for f in DEFAULT_FREQUENCY_SET:
            assert energy_per_cycle(DEFAULT_POWER_MODEL, f) * f == pytest.approx(
                power_at(DEFAULT_POWER_MODEL, f), rel=1e-14
            )

    def test_reference_value_at_fmax(self):
        # 1394.2 mW / 2.1 GHz is about 0.664 nJ per cycle
        nj = energy_per_cycle(DEFAULT_POWER_MODEL, 2.1e9) * 1e9
        assert abs(nj - 0.664) / 0.664 < 0.01

    def test_power_law_ratio_without_static(self):
        pm = PowerModel(2.0, 2.5, 0.0, 0.0)
        ratio = energy_per_cycle(pm, 4e9) / energy_per_cycle(pm, 2e9)
        assert ratio == pytest.approx(2 ** 1.5, rel=1e-12)

    def test_reference_minimum_is_interior(self):
        # the static term makes the lowest frequency more expensive per cycle
        idx, _ = cheapest_frequency(DEFAULT_POWER_MODEL, DEFAULT_FREQUENCY_SET)
        assert idx == 2

    def test_monotone_when_static_free(self):
        pm = PowerModel(1.0, 3.0, 0.0, 0.0)
        costs = [energy_per_cycle(pm, f) for f in DEFAULT_FREQUENCY_SET]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_monotone_whenever_derivative_allows(self):
        # per-cycle energy is only asserted non-decreasing over a set when
        # its derivative is non-negative there; the static term delta/f can
        # legitimately break monotonicity (the fitted model does)
        def derivative(pm, f):
            return pm.alpha * (pm.beta - 1.0) * f ** (pm.beta - 2.0) - pm.delta / f**2

        for pm in (DEFAULT_POWER_MODEL, PowerModel(1e-27, 3.0, 1e-12, 0.0)):
            freqs = list(DEFAULT_FREQUENCY_SET)
            if all(derivative(pm, f) >= 0 for f in freqs):
                costs = [energy_per_cycle(pm, f) for f in freqs]
                assert all(b >= a for a, b in zip(costs, costs[1:]))


class TestFrequencySet:
    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            FrequencySet((2e9, 1e9))

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            FrequencySet(())
        with pytest.raises(ValueError):
            FrequencySet((0.0, 1e9))

    def test_fmax(self):
        assert DEFAULT_FREQUENCY_SET.f_max == 2.1e9


class TestFit:
    def test_reference_points_recover_constants(self):
        points = [(f * 1e9, p * 1e-3) for f, p in REFERENCE_POINTS_GHZ_MW]
        fit = fit_power_model(points, delta=0.276)
        alpha, beta, gamma, delta = fit.model.to_ghz_mw()
        assert abs(alpha - 23.8729) / 23.8729 < 0.02
        assert abs(beta - 3.2941) / 3.2941 < 0.02
        assert abs(gamma - 401.6654) / 401.6654 < 0.02
        assert delta == pytest.approx(276.0)

    def test_exact_model_recovered(self):
        pm = PowerModel.from_ghz_mw(20.0, 3.1, 350.0, 100.0)
        freqs = [0.9e9, 1.2e9, 1.5e9, 1.9e9, 2.2e9]
        points = [(f, power_at(pm, f) - pm.delta) for f in freqs]
        fit = fit_power_model(points, delta=pm.delta)
        assert fit.rms < 1e-9
        a0, b0, g0, _ = pm.to_ghz_mw()
        a1, b1, g1, _ = fit.model.to_ghz_mw()
        assert abs(a1 - a0) / a0 < 1e-6
        assert abs(b1 - b0) / b0 < 1e-6
        assert abs(g1 - g0) / g0 < 1e-6

    def test_two_points_rejected(self):
        with pytest.raises(ValueError):
            fit_power_model([(1e9, 0.4), (2e9, 1.1)], delta=0.276)

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ValueError):
            fit_power_model([(1e9, 0.4), (1e9, 0.5), (1e9, 0.6)], delta=0.0)

    def test_fit_far_from_the_data_rejected(self):
        # one frequency 60 decades off: the best fit misses by 96% of the data
        points = [(1e69, 0.1), (2e9, 0.2), (3e9, 0.3)]
        with pytest.raises(ValueError, match="fit failed"):
            fit_power_model(points, delta=0.0)


class TestModelValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PowerModel(0.0, 3.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PowerModel(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PowerModel(1.0, 3.0, -1.0, 0.0)

    def test_unit_round_trip(self):
        a, b, g, d = DEFAULT_POWER_MODEL.to_ghz_mw()
        again = PowerModel.from_ghz_mw(a, b, g, d)
        assert again.alpha == pytest.approx(DEFAULT_POWER_MODEL.alpha, rel=1e-12)
        assert again.gamma == pytest.approx(DEFAULT_POWER_MODEL.gamma, rel=1e-12)
