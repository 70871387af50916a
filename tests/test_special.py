"""Special-function kernels against quadrature of the defining integrals."""

import math

import numpy as np
import pytest

from qrngsim.statskit.special import erfc, igamc, normal_cdf

from oracles import erfc_quadrature, igamc_quadrature


class TestErfc:
    def test_symmetry_point(self):
        assert erfc(0.0) == 1.0

    def test_worked_value(self):
        # quadrature oracle gives 0.6547208460185770 at x = 0.316228
        assert erfc(0.316228) == pytest.approx(0.654721, abs=5e-7)
        assert erfc(0.316228) == pytest.approx(erfc_quadrature(0.316228), rel=1e-13)

    def test_far_tail(self):
        value = erfc(10.0)
        assert 0.0 < value < 1e-43

    @pytest.mark.parametrize("x", np.linspace(-10.0, 10.0, 81).tolist())
    def test_quadrature_agreement(self, x):
        want = erfc_quadrature(x)
        assert erfc(x) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_reflection_identity(self):
        for x in np.linspace(0.0, 8.0, 33):
            assert abs(erfc(x) + erfc(-x) - 2.0) <= 1e-14

    def test_limits(self):
        assert erfc(float("inf")) == 0.0
        assert erfc(float("-inf")) == 2.0
        assert math.isnan(erfc(float("nan")))

    def test_extreme_argument_underflows_to_zero(self):
        assert erfc(30.0) == 0.0


class TestIgamc:
    def test_domain_errors(self):
        with pytest.raises(ValueError, match="igamc requires a > 0"):
            igamc(0.0, 1.0)
        with pytest.raises(ValueError, match="igamc requires a > 0"):
            igamc(-1.0, 1.0)
        with pytest.raises(ValueError, match="igamc requires x >= 0"):
            igamc(1.0, -0.5)

    def test_exponential_identity(self):
        # igamc(1, x) = exp(-x)
        for x in np.linspace(0.0, 30.0, 61):
            assert igamc(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12, abs=1e-300)
        assert igamc(1.0, 1.0) == pytest.approx(0.367879, abs=5e-7)

    def test_erfc_identity(self):
        # igamc(1/2, x) = erfc(sqrt(x))
        for x in np.linspace(0.01, 25.0, 50):
            assert abs(igamc(0.5, x) - erfc(math.sqrt(x))) <= 1e-10
        assert igamc(0.5, 0.1) == pytest.approx(erfc(0.316228), abs=1e-6)

    def test_integer_shape_closed_form(self):
        # igamc(2, x) = (1 + x) exp(-x)
        assert igamc(2.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        assert igamc(2.0, 1.0) == pytest.approx(0.735759, abs=5e-7)
        assert igamc(2.0, 6.0) == pytest.approx(7.0 * math.exp(-6.0), rel=1e-12)

    def test_worked_block_frequency_kernel(self):
        assert igamc(1.5, 0.5) == pytest.approx(0.801252, abs=5e-7)

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.0, 8.0, 390.5, 2048.0, 16384.0])
    def test_quadrature_agreement(self, a):
        for ratio in (0.25, 0.8, 1.0, 1.3, 3.0):
            x = a * ratio
            want = igamc_quadrature(a, x)
            if want < 1e-280:
                continue
            assert igamc(a, x) == pytest.approx(want, rel=2e-10)

    def test_boundaries(self):
        assert igamc(3.0, 0.0) == 1.0
        assert igamc(3.0, float("inf")) == 0.0

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = float(10 ** rng.uniform(-1, 4))
            x = float(a * 10 ** rng.uniform(-1, 1))
            q = igamc(a, x)
            assert 0.0 <= q <= 1.0


class TestNormalCdf:
    def test_median(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_one_sigma(self):
        # quadrature: Phi(1) = 0.841344746...
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, rel=1e-12)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)
