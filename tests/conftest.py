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
    if config.getoption("--long"):
        return
    skip_long = pytest.mark.skip(reason="long instance, enable with --long")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip_long)


@pytest.fixture
def eliminations(monkeypatch):
    """The field of every `exact_arith._echelon` call from here on, 0 for Q."""
    from negcurve import exact_arith
    real, calls = exact_arith._echelon, []

    def echelon(rows, ncols, p=0):
        calls.append(p)
        return real(rows, ncols, p)

    monkeypatch.setattr(exact_arith, "_echelon", echelon)
    return calls
