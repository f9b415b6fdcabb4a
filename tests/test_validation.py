"""Validation utilities tests (mantissa agreement scoring)."""

import numpy as np
import pytest

from repro.gles2.precision import (
    mantissa_agreement_bits,
    truncate_mantissa,
)
from repro.validation import (
    mantissa_histogram,
    precision_report,
    validate_exact,
)


class TestValidateExact:
    def test_equal(self):
        assert validate_exact(np.array([1, 2, 3]), np.array([1, 2, 3]))

    def test_unequal(self):
        assert not validate_exact(np.array([1, 2, 3]), np.array([1, 2, 4]))


class TestMantissaAgreement:
    def test_identical_values_full_agreement(self):
        ref = np.array([1.5, -2.25, 1e10])
        bits = mantissa_agreement_bits(ref, ref)
        assert np.all(bits == 23.0)

    def test_fp16_level_error(self):
        ref = np.array([1.0])
        # Perturb by 2^-11: agreement ~10 bits (fp16 mantissa).
        measured = ref * (1 + 2.0**-11)
        bits = mantissa_agreement_bits(ref, measured)
        assert 9.0 <= bits[0] <= 11.0

    def test_fp24_level_error(self):
        ref = np.array([1.0])
        measured = ref * (1 + 2.0**-17)
        bits = mantissa_agreement_bits(ref, measured)
        assert 15.0 <= bits[0] <= 17.0

    def test_zero_reference_zero_measurement(self):
        bits = mantissa_agreement_bits(np.array([0.0]), np.array([0.0]))
        assert bits[0] == 23.0

    def test_zero_reference_nonzero_measurement(self):
        bits = mantissa_agreement_bits(np.array([0.0]), np.array([1.0]))
        assert bits[0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("reference", [1.0, -3.5, 0.0])
    def test_nonfinite_measurement_agrees_in_no_bits(self, reference, bad):
        bits = mantissa_agreement_bits(np.array([reference]),
                                       np.array([bad]))
        assert bits[0] == 0.0

    def test_truncation_agreement_matches_kept_bits(self):
        rng = np.random.default_rng(4)
        ref = (rng.standard_normal(1000) * 100).astype(np.float32)
        truncated = truncate_mantissa(ref, 12)
        bits = mantissa_agreement_bits(ref, truncated)
        # Truncating to 12 bits leaves at least ~11 matched bits.
        assert np.median(bits) >= 11.0


class TestPrecisionReport:
    def test_report_fields(self):
        ref = np.array([1.0, 2.0, 4.0, 8.0])
        report = precision_report(ref, ref)
        assert report.min_bits == 23.0
        assert report.fraction_ge_15 == 1.0
        assert report.count == 4
        assert report.meets_paper_band()

    def test_band_failure_with_fp16_error(self):
        rng = np.random.default_rng(5)
        ref = rng.standard_normal(100) + 2.0
        measured = ref * (1 + 2.0**-10)
        report = precision_report(ref, measured)
        assert not report.meets_paper_band()

    def test_all_nan_output_fails_the_band(self):
        report = precision_report(np.ones(8), np.full(8, np.nan))
        assert report.median_bits == 0.0
        assert report.fraction_ge_15 == 0.0
        assert not report.meets_paper_band()

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 101])
    def test_median_equals_numpy_median(self, size):
        rng = np.random.default_rng(size)
        ref = rng.standard_normal(size) + 2.0
        measured = ref * (1 + rng.uniform(-2.0**-12, 2.0**-12, size))
        bits = mantissa_agreement_bits(ref, measured)
        report = precision_report(ref, measured)
        assert np.float64(report.median_bits).tobytes() == \
            np.float64(np.median(bits)).tobytes()

    def test_str_rendering(self):
        ref = np.array([1.0])
        assert "mantissa agreement" in str(precision_report(ref, ref))

    def test_histogram(self):
        ref = np.array([1.0, 2.0])
        counts, edges = mantissa_histogram(ref, ref)
        assert counts.sum() == 2


class TestTruncateMantissa:
    def test_keep_all_bits_identity(self):
        values = np.array([1.2345], dtype=np.float32)
        assert np.array_equal(truncate_mantissa(values, 23), values)

    def test_truncation_reduces_precision(self):
        value = np.array([1.0 + 2.0**-20], dtype=np.float32)
        truncated = truncate_mantissa(value, 10)
        assert truncated[0] == 1.0

    def test_powers_of_two_exact(self):
        values = np.array([0.5, 1.0, 2.0, 1024.0], dtype=np.float32)
        assert np.array_equal(truncate_mantissa(values, 8), values)

    def test_nonfinite_pass_through(self):
        values = np.array([np.inf, -np.inf, np.nan], dtype=np.float32)
        out = truncate_mantissa(values, 10)
        assert out[0] == np.inf and out[1] == -np.inf and np.isnan(out[2])

    def test_truncates_toward_zero(self):
        value = np.array([1.9999], dtype=np.float32)
        truncated = truncate_mantissa(value, 4)
        assert truncated[0] <= 1.9999
