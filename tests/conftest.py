"""Shared pytest wiring: surface the acceptance scorecard in the summary, and
run property tests from a fixed seed with no example database, so every run
draws the same examples."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("derandomize", derandomize=True, database=None)
    settings.load_profile("derandomize")

SCORECARD: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if SCORECARD:
        terminalreporter.section("acceptance scorecard")
        for line in sorted(SCORECARD):
            terminalreporter.write_line(line)
