import pytest


@pytest.fixture(scope="session")
def all_twice(tmp_path_factory):
    """Two runs of all on the packaged config, each into a directory of
    its own: (the two exit codes, the first directory, the second)."""
    from carleman_lab.cli import run

    first, second = (tmp_path_factory.mktemp(name)
                     for name in ("first", "second"))
    return (run("all", None, False, str(first)),
            run("all", None, False, str(second))), first, second


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdicts after capture ends."""
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
