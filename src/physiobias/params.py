"""The parameters and defaults that the CLI's flags take, in one home that
imports no numpy.

`cli.build_parser` reads its flag defaults here, so a command that never
touches an array (`smooth`, `report`, `--help`, `--version`) starts without
numpy. The modules that use a parameter (`eda`, `gbt`, `synth`, `signals`,
`ingest`, `evaluation`) import it from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PhysioBiasError

# The window length of `extract` and of the features.
DEFAULT_WINDOW_SECONDS = 5.0

# Sessions shorter than this after alignment carry too few windows to use.
MIN_SESSION_SECONDS = 30.0

# Defaults of evaluate, which the CLI's --seed and --top-n also take.
DEFAULT_SEED = 0
DEFAULT_TOP_N = 20

# Longest session and largest effect `synth` accepts: twice the longest E4
# recording (24 h), and an effect of 600 extra pulses a minute, more than two
# per EDA sample.
MAX_SESSION_SECONDS = 172_800.0
MAX_EFFECT_SIZE = 100.0

# Where the synthetic effect sits: the whole session, or only its final third.
EFFECT_LOCATIONS = ("uniform", "end")


@dataclass
class DecompParams:
    """EDA decomposition parameters. Defaults follow common practice for
    skin-conductance deconvolution."""

    knot_spacing: float = 10.0  # tonic spline knot spacing, s
    alpha: float = 8e-4         # l1 weight on the driver
    gamma: float = 1e-2         # l2 weight on the spline coefficients
    tol: float = 1e-2           # stop when max |gradient mapping| <= tol * alpha
    max_iter: int = 5000

    def __post_init__(self) -> None:
        if not 0 < self.knot_spacing < math.inf:
            raise PhysioBiasError("knot_spacing must be > 0 and finite")
        if not all(0 < v < math.inf for v in (self.alpha, self.gamma, self.tol)):
            raise PhysioBiasError("alpha, gamma and tol must be > 0 and finite")
        if self.max_iter < 1:
            raise PhysioBiasError("max_iter must be >= 1")


@dataclass
class GbtParams:
    depth: int = 4
    rounds: int = 100
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0  # minimum hessian sum per child

    def __post_init__(self) -> None:
        if self.depth < 1 or self.rounds < 0:
            raise PhysioBiasError("depth must be >= 1 and rounds >= 0")
        if not (0 < self.learning_rate <= 1):
            raise PhysioBiasError("learning_rate must be in (0, 1]")
        if not (self.reg_lambda >= 0 and self.min_child_weight >= 0):
            raise PhysioBiasError("reg_lambda and min_child_weight must be >= 0")


@dataclass
class SynthParams:
    participants_per_class: int = 20
    session_seconds: float = 300.0
    effect_size: float = 3.0
    effect_location: str = "uniform"  # one of EFFECT_LOCATIONS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.participants_per_class < 1:
            raise PhysioBiasError(f"participants_per_class must be >= 1, "
                                  f"got {self.participants_per_class}")
        if not 0 < self.session_seconds <= MAX_SESSION_SECONDS:
            raise PhysioBiasError(f"session_seconds must be positive and at most "
                                  f"{MAX_SESSION_SECONDS:g} (48 h), got {self.session_seconds}")
        if not 0 <= self.effect_size <= MAX_EFFECT_SIZE:
            raise PhysioBiasError(f"effect_size must be >= 0 and at most {MAX_EFFECT_SIZE:g}, "
                                  f"got {self.effect_size}")
        if self.effect_location not in EFFECT_LOCATIONS:
            raise PhysioBiasError(f"effect_location must be one of {EFFECT_LOCATIONS}, "
                                  f"got {self.effect_location!r}")
        if self.seed < 0:
            raise PhysioBiasError(f"seed must be >= 0, got {self.seed}")
