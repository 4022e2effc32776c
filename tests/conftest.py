import pytest

from oepartitions import genfun


@pytest.fixture
def summand_calls(monkeypatch):
    """The orders of the genfun._sum_summands calls a test makes, from cold caches.

    Every cached series builder in genfun is cleared first, so a series
    counts as summed only if the test itself sums it.
    """
    for builder in vars(genfun).values():
        if hasattr(builder, "cache_clear"):
            builder.cache_clear()
    orders = []
    inner = genfun._sum_summands

    def counting(order, *args, **kwargs):
        orders.append(order)
        return inner(order, *args, **kwargs)

    monkeypatch.setattr(genfun, "_sum_summands", counting)
    return orders
