import pytest

import acceptance_report


def pytest_terminal_summary(terminalreporter):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def fraction_count(monkeypatch):
    """A list that records every Fraction that meandim.counterexample,
    meandim.geometry, meandim.symbolic and meandim.widthmaps construct while
    the test runs."""
    from fractions import Fraction

    from meandim import counterexample, geometry, symbolic, widthmaps

    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(widthmaps, "Fraction", CountingFraction)
    monkeypatch.setattr(geometry, "Fraction", CountingFraction)
    monkeypatch.setattr(symbolic, "Fraction", CountingFraction)
    monkeypatch.setattr(counterexample, "Fraction", CountingFraction)
    return built
