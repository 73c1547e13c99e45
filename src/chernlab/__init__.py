"""Numerical laboratory for disordered two-dimensional Chern insulators.

Layers, from geometry to experiment:

- lattice, model: Bravais boxes and finite-range hopping models with a
  Haldane honeycomb constructor.
- bloch: torus spectra, band/gap intervals, Chern numbers.
- disorder: single-site laws, Holder constants, reproducible sampling.
- finite_volume: simple/periodic restrictions, projections, resolvents.
- topology: real-space Chern marker and its triple-kernel test oracle.
- bounds: resolvent-decay rates, fractional-moment constants, disorder
  thresholds.
- probes: seeded Monte-Carlo estimators confronting the bounds.
- cli: JSON-configured experiment runner with reproducible outputs.

``import chernlab`` loads none of them: a layer is imported on first
use, by ``import chernlab.probes`` or by the attribute access
``chernlab.probes`` (a module ``__getattr__``, PEP 562). So a command
that needs only the clean spectrum never loads scipy, and
``python -m chernlab.cli`` executes the runner only once.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "bloch",
    "bounds",
    "cli",
    "disorder",
    "finite_volume",
    "lattice",
    "model",
    "probes",
    "topology",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        # the import binds the submodule as an attribute of the package,
        # so this runs once per layer
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
