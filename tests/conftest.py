"""Fixtures shared by the test modules."""

import gc
import types

import pytest


def _from_pbesynth(obj) -> bool:
    module = obj.__module__ if isinstance(obj, types.FunctionType) \
        else type(obj).__module__
    return module is not None and \
        (module == "pbesynth" or module.startswith("pbesynth."))


@pytest.fixture
def cyclic_garbage():
    """A function that runs its argument with the collector off and
    returns what the run left in reference cycles: every object whose type
    a pbesynth module defines, and every function one defines."""

    def run(fn):
        gc.collect()
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            fn()
            gc.collect()
            return [o for o in gc.garbage if _from_pbesynth(o)]
        finally:
            gc.garbage.clear()
            gc.set_debug(flags)
            if enabled:
                gc.enable()

    return run
