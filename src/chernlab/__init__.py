"""Numerical laboratory for disordered two-dimensional Chern insulators.

Layers, from geometry to experiment:

- lattice, model: Bravais boxes and finite-range hopping models with a
  Haldane honeycomb constructor.
- bloch: torus spectra, band/gap intervals, Chern numbers.
- disorder: single-site laws, Holder constants, reproducible sampling.
- finite_volume: simple/periodic restrictions, projections, resolvents.
- topology: real-space Chern marker, triple-kernel form, index pairing.
- bounds: resolvent-decay rates, fractional-moment constants, disorder
  thresholds.
- probes: seeded Monte-Carlo estimators confronting the bounds.
- cli: JSON-configured experiment runner with reproducible outputs.
"""

from . import (
    bloch,
    bounds,
    cli,
    disorder,
    finite_volume,
    lattice,
    model,
    probes,
    topology,
)

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
