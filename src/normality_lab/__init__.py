"""Computational experiments on pointwise normality of self-similar measures.

Exact rational IFS machinery, algebraic obstruction classifiers, certified
digit/orbit computation, exact Fourier evaluation, fine-scale statistics, and
the orbit-vs-cylinder comparison, plus a CLI (`normality-lab`) that drives
seeded, reproducible experiments.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraicReal,
    CommensurabilityResult,
    ObstructionReport,
    ObstructionVerdict,
    PisotReport,
    classify_obstruction,
    incommensurable_slope_witness,
    is_pisot,
    log_commensurable,
)
from .errors import NormalityLabError
from .fourier import (
    DecayFit,
    DecayProfile,
    FourierValue,
    decay_fit,
    decay_profile,
    del_criterion_check,
    fourier_empirical,
    fourier_exact,
)
from .ifs import (
    AffineMap,
    SelfSimilarSystem,
    attractor_hull,
    bernoulli_half_system,
    beta_pair_system,
    cantor_system,
    compose,
    load_system,
    make_system,
    normalize,
    save_system,
    validate,
)
from .martingale import (
    CylinderModes,
    GapSeries,
    StoppingRecord,
    cylinder_mode,
    cylinder_modes,
    r_factor,
    stopping_records,
)
from .sampling import (
    DigitStream,
    PointApproximation,
    SequenceSample,
    WordStream,
    beta_orbit,
    digits,
    digits_of_rational,
    orbit_digit_count,
    orbit_sequence,
    point_of_word,
    power_orbit,
    sample_word,
    uniform_sample,
)
from .stats import (
    CorrelationResult,
    SpacingReport,
    TestFunction,
    WeylReport,
    digit_frequencies,
    discrepancy,
    k_level_correlation,
    level_spacings,
    weyl_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
