"""Randomness validation: special functions and the SP 800-22 subset."""

from .special import erfc, igamc, normal_cdf
from .sp800_22 import (
    SuiteReport,
    TestReport,
    approx_entropy_test,
    as_bit_array,
    block_frequency_test,
    cusum_test,
    default_serial_m,
    frequency_test,
    longest_run_test,
    run_suite,
    runs_test,
    serial_test,
    spectral_test,
)

__all__ = [
    "SuiteReport",
    "TestReport",
    "approx_entropy_test",
    "as_bit_array",
    "block_frequency_test",
    "cusum_test",
    "default_serial_m",
    "erfc",
    "frequency_test",
    "igamc",
    "longest_run_test",
    "normal_cdf",
    "run_suite",
    "runs_test",
    "serial_test",
    "spectral_test",
]
