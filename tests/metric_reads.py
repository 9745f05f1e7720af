"""Read a serving tier's counters by instrument name."""


def metric(service, name, **labels):
    """Current value of one series of counter ``name`` in ``service.metrics``."""
    return service.metrics.get(name).value(**labels)
