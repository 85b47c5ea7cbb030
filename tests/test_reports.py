"""Check rows: the tolerance rule every numeric check uses, and exact rows."""
import math

import numpy as np
import pytest

from riaho.reports import CheckRow


class TestWithin:
    def test_residual_at_tolerance_passes(self):
        row = CheckRow.within("c", "a = b", 1e-10, 1e-10)
        assert row.passed and row.status == "pass"

    def test_residual_above_tolerance_fails(self):
        assert not CheckRow.within("c", "a = b", 2e-10, 1e-10).passed

    @pytest.mark.parametrize("residual", [math.nan, np.float64("nan")])
    def test_nan_residual_fails(self, residual):
        row = CheckRow.within("c", "a = b", residual, 1e-10)
        assert row.passed is False
        assert math.isnan(row.residual)

    def test_zero_tolerance_demands_exact_zero(self):
        assert CheckRow.within("c", "a = b", 0.0, 0.0).passed
        assert not CheckRow.within("c", "a = b", 5e-324, 0.0).passed

    def test_residual_stored_as_python_float(self):
        row = CheckRow.within("c", "a = b", np.float64(3e-11), 1e-10, detail="d")
        assert type(row.residual) is float and type(row.passed) is bool
        assert row.to_dict() == {"check_id": "c", "identity": "a = b", "status": "pass",
                                 "residual": 3e-11, "elapsed": 0.0, "detail": "d"}


class TestExact:
    def test_pass_reports_zero_residual(self):
        row = CheckRow.exact("c", "a = b", True, detail="d")
        assert (row.passed, row.residual, row.detail) == (True, 0.0, "d")

    def test_fail_reports_no_residual(self):
        row = CheckRow.exact("c", "a = b", False)
        assert (row.passed, row.residual, row.status) == (False, None, "fail")
