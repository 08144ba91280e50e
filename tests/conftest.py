"""Shared test fixtures."""

import pytest

from roadcast.model import ModelConfig


@pytest.fixture
def tiny_cfg():
    """Smallest joint model the training and acceptance tests train: every
    component on, LoRA dropout off."""
    return ModelConfig(d_model=8, heads=2, n_blocks=1, patch=4, window=8,
                       d_embed=4, hist_text_len=8, future_text_len=10, top_k=4,
                       memory_slots=4, decoder_blocks=1, detector_hidden=4,
                       lora_rank=4, lora_alpha=8.0, lora_dropout=0.0)
