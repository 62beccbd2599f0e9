"""iCOIL core: hybrid scenario analysis and the mode-switching controller.

This is the paper's primary contribution (§III–IV):

* :mod:`repro.core.hsa` — scenario uncertainty (Eq. 7), scenario complexity
  (Eq. 8) and the HSA decision rule (Eq. 1),
* :mod:`repro.core.controller` — the integrated iCOIL controller that runs
  perception, always evaluates the IL policy (its output distribution feeds
  HSA), and executes either the IL or the CO command depending on the HSA
  score, with a guard time smoothing transitions; also the
  :class:`ControlStep` every controller's ``step_split`` finish returns,
* :mod:`repro.core.baselines` — the pure-IL and pure-CO baselines used in the
  paper's comparison,
* :mod:`repro.core.config` — configuration shared by the above.
"""

from repro.core.baselines import COOnlyController, ILOnlyController
from repro.core.determinism import (
    check_hash_seed,
    derive_rng,
    derive_seed,
    require_matching_hash_seed,
    verify_seed,
)
from repro.core.config import ICOILConfig
from repro.core.controller import ControlStep, DrivingMode, ICOILController
from repro.core.hsa import HSAModel, HSAReading

__all__ = [
    "COOnlyController",
    "ControlStep",
    "DrivingMode",
    "check_hash_seed",
    "derive_rng",
    "derive_seed",
    "HSAModel",
    "HSAReading",
    "ICOILConfig",
    "ICOILController",
    "ILOnlyController",
    "require_matching_hash_seed",
    "verify_seed",
]
