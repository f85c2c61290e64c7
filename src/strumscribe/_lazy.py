"""Modules bound now and imported on their first attribute read.

`module(name)` returns the module from `sys.modules` if it is there.
Otherwise it registers an `importlib.util.LazyLoader` module under that
name, and on a submodule's parent package too, and returns it: the
module's code runs at the first read of one of its attributes. The object
returned is the real module once loaded, so patching its attributes
reaches every caller. A module that cannot be found fails at once, not at
first use.

numpy is bound so: each numpy-using module binds `np` with
`from ._lazy import numpy as np`, not `import numpy as np`. An `import`
statement that finds a module in `sys.modules` reads the module's
`__spec__`, and that read alone would run the deferred import. Subcommands
that never compute (render, barlines, --help, an argument error) thus
start without numpy, and a missing numpy still fails at
`import strumscribe`. `cli` binds its stage modules the same way, so each
command runs only the stage modules it uses.
"""

import importlib.util
import sys


def module(name: str):
    """The module `name`, imported on its first attribute read."""
    found = sys.modules.get(name)
    if found is not None:
        return found
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    found = importlib.util.module_from_spec(spec)
    sys.modules[name] = found
    spec.loader.exec_module(found)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, found)
    return found


numpy = module("numpy")
