"""Margin-driven adversarial attacks and non-zero-sum adversarial training
on a small numpy autodiff core, with exhaustive oracles for desk-scale
verification."""

from .attacks import (AttackConfig, AttackResult, beta_attack,
                      beta_attack_batch, closed_form_linear_attack, fgsm,
                      grid_margin_per_class, grid_max_cross_entropy,
                      grid_oracle_attack, pgd_surrogate, pgd_surrogate_batch,
                      project, targeted_margin_ascent)
from .data import Dataset, DatasetSpec, generate_dataset, load_idx
from .models import (Checkpoint, ModelSpec, ParamSet, forward_logits,
                     init_params, linear_model, load_checkpoint, predict,
                     save_checkpoint)
from .objectives import (MarginVector, SmoothingConfig, cross_entropy,
                         lambda_star, lse_smoothed_margin,
                         max_margin_over_classes, negative_margin,
                         nll_of_probs, zero_one_error)
from .optim import LrSchedule, OptimState, lr_at, step
from .tensor import Tensor, affine, finite_diff_check, relu
from .training import (EpochMetrics, SelectionReport, TrainConfig,
                       evaluate_robust, run_training, select_checkpoints)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
