"""Chord functionals on discrete closed unit-speed curves.

Discretizes closed curves of length 2*pi as equal-edge polygons,
evaluates chord/arc knot energies and average chord-power functionals
with their sharp circle values, verifies the underlying chord-square
inequality on both the Fourier and the direct side, and runs the
symmetry-breaking maximizer experiment for convex chord powers.
"""

from .errors import (
    ChordEnergyError,
    DegenerateCurveError,
    InvalidDiscretizationError,
    KernelSingularityError,
    ParameterDomainError,
    SingularGradientError,
)
from .geometry import (
    PolyCurve,
    lambda_chord,
    load_curve,
    make_circle,
    make_double_segment,
    make_ellipse,
    random_closed_curve,
    resample_arclength,
    save_curve,
)
from .functionals import (
    ChordKernel,
    EnergyParams,
    INFINITE_DISTORTION,
    avg_chord_p,
    chord_average,
    circle_avg_chord,
    circle_bound,
    distortion,
    distortion_at,
    energy_Ejp,
    renorm_energy,
    segment_avg_chord,
)
from .spectral import (
    DeficitProfile,
    FourierCurve,
    analyze,
    deficit,
    deficit_direct,
    ellipse_uniform_parameter,
    tetra_check,
    trig_lemma_check,
)
from .optimizer import (
    IterationRecord,
    OptimizeOptions,
    OptimizeResult,
    Termination,
    canonicalize,
    crossover_segment_circle,
    maximize,
    objective_grad,
    perturb_mode2,
    project,
    sweep,
)
from .shape import ConicFit, SweepRecord, fit_conic, hausdorff, width_ratio
from .harness import (
    ExperimentConfig,
    VerificationReport,
    emit_svg,
    reproduce_figures,
    verify_all,
)

__version__ = "0.1.0"
