"""Random-walk graph sampling and characteristic estimation.

The package has three layers:

* samplers that crawl a graph under an explicit query budget
  (frontier sampling with m coupled walkers, single and independent
  random walks, a continuous-time distributed variant, and uniform
  vertex/edge sampling baselines);
* estimators that turn a sampling trace into graph characteristics
  (degree densities and CCDF, label densities, degree correlation,
  global clustering);
* exact oracles and a Monte Carlo harness used to verify both.
"""

from . import errors, estimators, graphs, harness, oracles, rng, samplers
from .errors import *
from .graphs import *
from .rng import *
from .samplers import *
from .estimators import *
from .oracles import *
from .harness import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__", *errors.__all__, *graphs.__all__, *rng.__all__, *samplers.__all__,
           *estimators.__all__, *oracles.__all__, *harness.__all__]
