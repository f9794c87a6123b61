"""Exact Jensen-Shannon divergence machinery for domain-shift analysis.

Finite-support probability objects, exact f-divergences and the
threshold-classifier divergence, verified risk bounds for every shift
regime, black-box label-shift correction, synthetic scenario generation,
and a transparent three-principle adaptation trainer.
"""

from .bounds import (
    BoundReport,
    TailParams,
    conditional_shift_lower_bound,
    decomposed_upper_bound,
    intrinsic_error_upper_bound,
    joint_upper_bound,
    label_conditional_floor,
    matched_conditional_band,
    open_set_band,
    open_set_label_pair,
    prediction_gap_lower_bound,
    reweighted_convergence_check,
    risk_band_from_values,
    zero_one_band,
)
from .cases import CaseReport, counterexample1, counterexample2, interleaved_uniforms
from .divergence import (
    divergence,
    h_divergence_1d,
    half_total_variation,
    js_distance,
    js_divergence,
    kl_divergence,
    pushforward,
    total_variation,
)
from .labelshift import (
    ConfusionMatrix,
    WeightVector,
    bbsl_weights,
    confusion_matrix,
    estimate_scenario_weights,
    reweighted_risk,
)
from .pmf import (
    DistributionError,
    JointPmf,
    LossTable,
    Pmf,
    align_supports,
    conditionals,
    expected_risk,
    marginals,
    mixture,
)
from .scenarios import (
    SampleBatch,
    ShiftScenario,
    discretize,
    linear_zero_one_risk,
    make_scenario,
    midpoint_classifier,
    sample,
)
from .suites import SUITE_NAMES, run_suite, violations
from .training import (
    CentroidState,
    ModelParams,
    TrainConfig,
    TrainTrace,
    ablate,
    feature_shift_statistics,
    grad_check,
    init_models,
    lambda_schedule,
    loss_and_gradients,
    pseudo_label_step,
    run_training,
    train_step,
)

__version__ = "0.1.0"
