import pytest
from hypothesis import settings, HealthCheck

settings.register_profile(
    "exact",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")


def pytest_addoption(parser):
    parser.addoption("--long", action="store_true", default=False,
                     help="also run the long-running instances")


def pytest_collection_modifyitems(config, items):
    # criterion 9 reads the results of the property suite when this session
    # runs it too, so then it goes last (the sort is stable)
    if any(item.path.name == "test_properties.py" for item in items):
        items.sort(key=lambda item: item.name == "test_criterion_9_property_suites")
    if config.getoption("--long"):
        return
    skip_long = pytest.mark.skip(reason="long instance, enable with --long")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip_long)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # the outcome of each phase that ran, kept on the item for criterion 9
    report = (yield).get_result()
    item.phases = {**getattr(item, "phases", {}), report.when: report.outcome}


@pytest.fixture
def eliminations(monkeypatch):
    """The prime of every `exact_arith._echelon` call from here on."""
    from negcurve import exact_arith
    real, calls = exact_arith._echelon, []

    def echelon(rows, ncols, p):
        calls.append(p)
        return real(rows, ncols, p)

    monkeypatch.setattr(exact_arith, "_echelon", echelon)
    return calls
