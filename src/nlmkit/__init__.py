"""nlmkit: from-scratch neural language models with auditable internals.

Forward passes, losses, and closed-form parameter counts for feedforward,
Elman RNN, LSTM, decoder-transformer (GPT2-style) and encoder-transformer
(BERT-style) language models, a toy gradient-descent trainer with
reverse-mode gradients (finite differences where a model has no reverse
pass yet), plus binary weight archives and a CLI.  Everything is float64
numpy; the package needs no other numeric library.
"""

from .archive import load_weights, save_weights
from .attention import build_mask, multi_head_attention
from .audit import CountReport, audit_config, count_for_config, enumerate_weights
from .config import ModelConfig, load_config, parse_config
from .embeddings import add_positions, embed, tied_logits
from .ffnn import ffnn_batch_forward, ffnn_forward
from .inference import generate_tokens
from .kernels import gelu, layer_norm, sigmoid, softmax
from .losses import ar_loss, ce_loss, corpus_nll, mlm_corrupt, mlm_loss
from .recurrent import recurrent_lm_forward, unroll
from .training import gd_step, numerical_gradient, train_toy
from .transformer import (
    bert_forward,
    gpt2_forward,
    mlm_head,
    nsp_head,
    transformer_block,
    transformer_stack,
)
from .vocab import TokenSequence, Vocabulary, detokenize, load_vocab, tokenize
from .weights import assemble_weights, init_weights, tensor_layout, zeros_weights

__version__ = "0.1.0"
