import numpy as np
import pytest


@pytest.fixture
def counted_draws(monkeypatch):
    """Spies on numpy's random objects: returns ``(made, keys)``, the names
    of the ``Philox``, ``Generator``, ``SeedSequence`` and ``default_rng``
    objects built through ``np.random``, in order, and each key a Philox
    state was reset to, as the integer ``numpy.random.Philox(key=...)``
    takes."""
    real_philox = np.random.Philox
    made, keys = [], []

    class CountingPhilox(real_philox):
        def __init__(self, *args, **kwargs):
            made.append("Philox")
            super().__init__(*args, **kwargs)

        state = property(real_philox.state.__get__)

        @state.setter
        def state(self, value):
            low, high = (int(word) for word in value["state"]["key"])
            keys.append(high << 64 | low)
            real_philox.state.__set__(self, value)

    def counting(name):
        real = getattr(np.random, name)

        def make(*args, **kwargs):
            made.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, make)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    for name in ("Generator", "SeedSequence", "default_rng"):
        counting(name)
    return made, keys
