"""seqcred: empirical-Bayes credible balls for the inverse Gaussian sequence model.

The package is organized by pipeline stage:

* :mod:`seqcred.model`       -- noise model, signal generators, simulation
* :mod:`seqcred.oracle`      -- oracle and surrogate rates, EBR/PT classes,
                                noise-sequence conditions, minimax scales
* :mod:`seqcred.posterior`   -- mixture posterior over projection levels
* :mod:`seqcred.credible`    -- data-driven radii, default centers, balls
* :mod:`seqcred.diagnostics` -- Monte-Carlo condition estimates and bounds
* :mod:`seqcred.experiments` -- seeded experiment harness and reports
* :mod:`seqcred.streams`     -- the table of random streams: which root and
                                spawn key feed which data set or draw
* :mod:`seqcred.cli`         -- command-line interface

Every public name of the stage modules is re-exported here; ``__all__`` is
built from theirs.  ``seqcred.oracle`` is the function, not the module.
"""

from importlib import import_module as _import_module

from .model import *
from .oracle import *
from .posterior import *
from .credible import *
from .diagnostics import *
from .experiments import *
from .streams import *

__version__ = "0.1.0"

_STAGES = ("model", "oracle", "posterior", "credible", "diagnostics", "experiments", "streams")

__all__ = ["__version__"] + [
    name for stage in _STAGES for name in _import_module(f"{__name__}.{stage}").__all__
]
