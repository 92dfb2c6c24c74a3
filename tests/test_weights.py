"""Seeded initialization: determinism and the seed's range."""

import numpy as np
import pytest

from nlmkit.errors import ConfigError, NlmError
from nlmkit.training import named_tensor_view
from nlmkit.weights import init_weights

from conftest import tiny_gpt2_config


class TestInitWeightsSeed:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_config_error(self, seed):
        with pytest.raises(ConfigError) as err:
            init_weights(tiny_gpt2_config(), seed)
        assert isinstance(err.value, NlmError)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_range_ends_are_accepted_and_deterministic(self, seed):
        a = named_tensor_view(init_weights(tiny_gpt2_config(), seed))
        b = named_tensor_view(init_weights(tiny_gpt2_config(), seed))
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)
