"""Multi-task error-correction language model with task-routed MoE layers.

The trainable pieces: a numpy reverse-mode autodiff core (`autodiff`), a
decoder-only transformer with MoE feed-forward blocks (`model`, `moe`), the
task registry and prompt layout (`tasks`), synthetic noise corpora (`corpus`),
the AdamW training loop with checkpoints (`training`), and WER/BLEU scoring
(`metrics`). The `moefix` CLI wires them into reproducible experiments.

Import the modules themselves (``from moefix import training``): the package
loads none of them, so ``moefix.cli`` can cap numpy's threads before numpy
is imported.
"""

__version__ = "0.1.0"
