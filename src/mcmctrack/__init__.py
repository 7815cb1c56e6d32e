"""Multi-target tracking with MCMC hypothesis generation.

A hypothesis-level Bayesian tracker for an unknown, changing number of
objects: each hypothesis carries labeled per-object Gaussian tracks and a
probability weight; children hypotheses (data associations plus birth/death
instances) are generated by a Metropolis random walk over the
data-association matrix instead of exhaustive enumeration. Includes an
orbital scenario simulator, an exhaustive small-instance oracle, and a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateUpdateError,
    EnumerationLimitError,
    InputDataError,
    InvalidEventError,
    NumericalError,
    SingularStateError,
    TrackingError,
)
from .filters import (
    MU_EARTH,
    DynamicsConfig,
    GaussianTrack,
    SensorModel,
    in_fov,
    predict_track,
    propagate_state,
    update_track,
)
from .hypotheses import (
    BIRTH,
    CLUTTER,
    AssociationEvent,
    BirthDeathConfig,
    BirthDeathMode,
    Hypothesis,
    PruneStrategy,
    association_prior,
    bayes_update_weights,
    birth_death_prior,
    child_prior,
    count_associations,
    count_grandchildren,
    prune,
)
from .likelihoods import (
    AssociationMatrix,
    BirthModel,
    ClutterModel,
    birth_likelihood,
    build_matrix,
    compare_likelihood_forms,
    hypothesis_log_likelihood,
    uniform_clutter,
)
from .oracle import (
    EnumerationLimit,
    enumerate_child_events,
    enumerate_grandchildren,
    exact_posterior,
    tv_distance,
)
from .sampler import ChildSample, SamplerConfig, sample_children
from .simulate import (
    MeasurementFrame,
    ScenarioConfig,
    SpawnEvent,
    TruthScan,
    generate_truth,
    sense,
    simulate_scenario,
)
from .tracker import (
    Tracker,
    TrackerConfig,
    TrackerMode,
    TrackerReport,
    adapt_birth_death_rates,
    hypothesis_count_bound,
    run_tracker,
)
