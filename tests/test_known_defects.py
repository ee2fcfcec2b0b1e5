"""Open defects, one test each, asserting the correct answer.

Each test is a strict xfail: it fails as soon as its defect is mended, so
the change that mends it turns it into a plain test.  `pytest -rxX` lists
what is still open."""

from __future__ import annotations

import pytest

from pellab.cli import run


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_decompose_finds_the_square_root_over_c():
    # 4t^4 - 1 = T_2(sqrt(2)*t^2): a square over C, with no rational root.
    result = run(["decompose", "--A", "4*t^4-1", "--B", "2*t^2", "--D", "4*t^4-2"])
    assert result.status == "Ok"
    assert "2" in result.payload["witnesses"]
    assert result.payload["primitive"] is False


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
def test_power_prints_coefficients_past_the_digit_limit():
    # The square's A has a 6,000-digit coefficient, past int's 4300-digit str().
    c = 10**1500
    argv = ["power", "--m", "2", "--allow-d1"]
    argv += ["--A", f"{2 * c * c}*t^2-1", "--B", f"{2 * c}*t", "--D", f"{c * c}*t^2-1"]
    result = run(argv)
    assert result.status == "Ok", result.diagnostics
