"""Margin-driven adversarial attacks and non-zero-sum adversarial training
on a plain-numpy model kernel, with a small autodiff graph as its reference
and exhaustive oracles for desk-scale verification."""

from .attacks import (AttackConfig, AttackResult, beta_attack,
                      beta_attack_batch, closed_form_linear_attack, fgsm,
                      grid_margin_per_class, grid_max_cross_entropy,
                      grid_oracle_attack, pgd_surrogate, pgd_surrogate_batch,
                      project, targeted_margin_ascent)
from .data import Dataset, DatasetSpec, generate_dataset, load_idx
from .models import (Checkpoint, ModelSpec, forward_logits, init_params,
                     linear_model, load_checkpoint, predict, save_checkpoint,
                     with_grad)
from .objectives import (cross_entropy, lambda_star, lse_smoothed_margin,
                         max_margin_over_classes, nll_of_probs, zero_one_error)
from .optim import OptimState, step
from .tensor import Tensor, affine, relu
from .training import (EpochMetrics, SelectionReport, TrainConfig,
                       evaluate_robust, run_training, select_checkpoints)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
