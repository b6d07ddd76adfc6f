import numpy as np

from gradcheck import grad_check


class TestGradCheck:
    def test_quadratic(self):
        def fn(p):
            return float(p["x"][0] ** 2), {"x": 2.0 * p["x"]}

        report = grad_check(fn, {"x": np.array([3.0])})
        assert report.max_rel_error < 1e-8
        assert report.passed

    def test_flags_corrupted_gradient(self):
        def fn(p):
            return float(p["x"][0] ** 2), {"x": 2.2 * p["x"]}  # +10% wrong

        report = grad_check(fn, {"x": np.array([3.0])})
        assert not report.passed
        assert report.worst_param == "x"
