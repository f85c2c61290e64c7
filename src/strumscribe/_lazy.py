"""numpy, bound now and imported on its first attribute read.

Each numpy-using module binds `np` with `from ._lazy import numpy as np`,
not `import numpy as np`: an `import` statement that finds numpy in
`sys.modules` reads the module's `__spec__`, and that read alone would run
the deferred import. Subcommands that never compute (render, barlines,
--help, an argument error) thus start without numpy. `numpy` is the real
module object once loaded, so patching its attributes reaches every caller,
and a missing numpy still fails at `import strumscribe`, not at first use.
"""

import importlib.util
import sys

numpy = sys.modules.get("numpy")
if numpy is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    numpy = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = numpy
    _spec.loader.exec_module(numpy)
