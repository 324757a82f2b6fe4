"""reprolab: a desk-scale adversarial reprogramming laboratory.

Optimizes masked universal perturbations that repurpose a frozen classifier
for a new task, computes the first-order diagnostics that explain when that
works (gradient alignment, dual-norm loss-drop predictors), and correlates
diagnostics with reprogramming success over reproducible experiment suites.
"""

from .datasets import (
    LabeledDataset,
    PadSpec,
    load_idx,
    make_batches,
    preprocess,
    synth_target_dataset,
)
from .diagnostics import (
    MetricsRecord,
    confusion_matrix,
    domain_alignment,
    gradient_alignment,
    predicted_loss_drop,
    reprogramming_accuracy,
)
from .models import (
    Network,
    TrainConfig,
    accuracy,
    build_cwnet,
    init_weights,
    predict_batch,
    train_sgd,
)
from .reprogram import (
    ClassMap,
    Mask,
    Program,
    ReprogramConfig,
    average_masked_gradient,
    box_project,
    build_class_map,
    build_frame_mask,
    optimize_program,
    reprogramming_loss,
)
from .stats import CorrelationResult, kendall_tau, pearson, permutation_pvalue, spearman
from .tensor import (
    Tensor,
    backward,
    conv2d,
    finite_diff_check,
    load_tensor,
    matmul,
    maxpool2d,
    no_grad,
    relu,
    save_tensor,
    softmax_cross_entropy,
)

__version__ = "0.1.0"
