"""Consensus-adaptive robust two-view model estimation.

A batched robust estimation loop for fundamental/essential matrices whose
per-correspondence latent states are updated from the consensus observed so
far, driving adaptive minimal sampling and likelihood-weighted nonlinear
refinement. Includes classical MSAC and locally-optimized baselines, a
synthetic epipolar data generator, an end-to-end trainer for the state
networks, and a benchmarking CLI.
"""

__version__ = "0.1.0"

# ``cli`` is left out: importing it here would make ``python -m caransac.cli``
# find the module already loaded and warn
from . import (  # noqa: F401
    engine,
    evaluation,
    formats,
    geometry,
    neural,
    refinement,
    sampling,
    scoring,
    training,
)
