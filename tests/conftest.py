import sys

import pytest

from ghzsim import CapacitanceNetwork, ControlSettings, derive_energies


@pytest.fixture(scope="session")
def network():
    return CapacitanceNetwork((600.0, 600.0, 600.0), (0.6, 0.6, 0.6), (30.0, 30.0))


@pytest.fixture(scope="session")
def settings():
    return ControlSettings((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), (5.6, 5.6, 5.6))


@pytest.fixture(scope="session")
def energies(network, settings):
    return derive_energies(network, settings)


@pytest.fixture
def clear_memos():
    """A function that empties every functools cache on the loaded ghzsim
    modules, so that a memo added or renamed later is emptied too."""
    def clear():
        for name, module in list(sys.modules.items()):
            if name == "ghzsim" or name.startswith("ghzsim."):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear"):
                        value.cache_clear()
    return clear
