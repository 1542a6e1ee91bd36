"""midecay: MI decay curves of symbol sequences and dilation schedule design.

Pipeline: load a corpus, estimate the mutual-information decay curve over a
lag grid, classify the decay law, then derive dilation schedules and
grid-search specs for dilated recurrent networks from the classified fit.
"""

from .corpus import (
    Corpus,
    CorpusError,
    load_idx_images,
    load_text,
    permute,
    read_idx_images,
    write_idx_images,
)
from .estimator import (
    DecayCurve,
    EmptyLagError,
    EstimationError,
    EstimatorConfig,
    LagGrid,
    curve_from_csv,
    curve_to_csv,
    decay_curve,
    default_lag_grid,
)
from .fit import (
    BrokenPowerLawFit,
    ClassifiedFit,
    DecayClass,
    ExponentialFit,
    FitError,
    PeriodicitySignature,
    PowerLawFit,
    classify,
    detect_decay_onset,
    detect_periodicity,
    fit_broken_power_law,
    fit_exponential,
    fit_power_law,
    noise_crossing,
    read_fit_json,
    write_fit_json,
)
from .schedule import (
    DilationSchedule,
    GridSearchSpec,
    MaxDilation,
    ScheduleError,
    build_grid,
    capped_standard_dilations,
    intercept_dilations,
    max_dilation,
    read_grid_json,
    schedule_for,
    standard_dilations,
    write_grid_json,
)

__version__ = "0.1.0"
