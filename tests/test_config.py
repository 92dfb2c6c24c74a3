"""The key=value config format: every rejection path, per-arch defaults and
the range checks of ModelConfig."""

import pytest

from nlmkit.config import ARCHITECTURES, ModelConfig, load_config, parse_config
from nlmkit.errors import ConfigError

GPT2 = "arch=gpt2\nd_e=8\nd_k=4\nd_v=4\nd_f=16\nM=2\nL=1\nvocab_size=11\nmax_len=6\n"
BERT = GPT2.replace("arch=gpt2", "arch=bert")
RNN = "arch=rnn\nd_e=5\nL=2\nvocab_size=11\nmax_len=6\n"
LSTM = RNN.replace("arch=rnn", "arch=lstm")
FFNN = "arch=ffnn\nd_e=3\nhidden_dims=5,4\nvocab_size=11\nmax_len=4\n"
TEXTS = {"gpt2": GPT2, "bert": BERT, "rnn": RNN, "lstm": LSTM, "ffnn": FFNN}


def without(text, key):
    return "".join(line + "\n" for line in text.splitlines() if not line.startswith(key + "="))


class TestParseAccepts:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_minimal_config_of_every_arch(self, arch):
        assert parse_config(TEXTS[arch]).arch == arch

    def test_comments_blank_lines_and_spaces_are_ignored(self):
        text = "# a model\n\n  arch = rnn \nd_e=5\n  # indented comment\nL=2\nvocab_size=11\nmax_len=6"
        assert parse_config(text) == parse_config(RNN)

    def test_values_are_typed(self):
        cfg = parse_config(GPT2 + "zeta=0\nnorm_variant=post\ngelu_mode=exact\n")
        assert (cfg.d_e, cfg.d_k, cfg.d_v, cfg.d_f, cfg.M, cfg.L) == (8, 4, 4, 16, 2, 1)
        assert (cfg.zeta, cfg.norm_variant, cfg.gelu_mode) == (0, "post", "exact")
        assert parse_config(FFNN).hidden_dims == [5, 4]

    def test_load_config_reads_the_file(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text(LSTM)
        assert load_config(path) == parse_config(LSTM)

    def test_load_config_of_non_utf8_file(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_bytes(LSTM.encode() + b"# \xe9t\xe9\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(path)


class TestParseRejects:
    @pytest.mark.parametrize("line", ["d_e 8", "d_e=", "=8", "d_e:8"])
    def test_line_without_key_and_value(self, line):
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_config(GPT2 + line + "\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'width'"):
            parse_config(GPT2 + "width=3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'd_e'"):
            parse_config(GPT2 + "d_e=8\n")

    def test_missing_arch(self):
        with pytest.raises(ConfigError, match="missing required key 'arch'"):
            parse_config(without(GPT2, "arch"))

    def test_unknown_arch(self):
        with pytest.raises(ConfigError, match="unknown arch 'gpt3'"):
            parse_config(GPT2.replace("arch=gpt2", "arch=gpt3"))

    @pytest.mark.parametrize("arch,key", [
        ("gpt2", "hidden_dims=4"), ("gpt2", "activation=tanh"),
        ("bert", "hidden_dims=4"), ("bert", "activation=tanh"),
        ("rnn", "zeta=1"), ("rnn", "d_k=4"), ("rnn", "hidden_dims=4"), ("rnn", "gelu_mode=tanh"),
        ("lstm", "activation=tanh"), ("lstm", "norm_variant=pre"), ("lstm", "d_f=4"),
        ("ffnn", "L=2"), ("ffnn", "M=2"), ("ffnn", "zeta=0"), ("ffnn", "norm_variant=post"),
    ])
    def test_key_not_valid_for_the_arch(self, arch, key):
        with pytest.raises(ConfigError, match=f"not valid for arch '{arch}'"):
            parse_config(TEXTS[arch] + key + "\n")

    @pytest.mark.parametrize("arch,key", [
        (arch, key) for arch, keys in {
            "gpt2": ["d_e", "vocab_size", "max_len", "d_k", "d_v", "d_f", "M", "L"],
            "bert": ["d_e", "vocab_size", "max_len", "d_k", "d_v", "d_f", "M", "L"],
            "rnn": ["d_e", "vocab_size", "max_len", "L"],
            "lstm": ["d_e", "vocab_size", "max_len", "L"],
            "ffnn": ["d_e", "vocab_size", "max_len", "hidden_dims"],
        }.items() for key in keys
    ])
    def test_missing_required_key(self, arch, key):
        with pytest.raises(ConfigError, match=f"missing keys: \\['{key}'\\]"):
            parse_config(without(TEXTS[arch], key))

    @pytest.mark.parametrize("value", ["eight", "8.0", "0x8", "8e0"])
    def test_non_integer(self, value):
        with pytest.raises(ConfigError, match="'d_e' expects an integer"):
            parse_config(without(GPT2, "d_e") + f"d_e={value}\n")

    @pytest.mark.parametrize("value", ["5,x", "5,,4", "5;4", "5,", "5.0"])
    def test_bad_hidden_dims_list(self, value):
        with pytest.raises(ConfigError, match="'hidden_dims' expects comma-separated integers"):
            parse_config(without(FFNN, "hidden_dims") + f"hidden_dims={value}\n")


class TestDefaults:
    def test_gpt2(self):
        cfg = parse_config(GPT2)
        assert (cfg.norm_variant, cfg.zeta, cfg.gelu_mode, cfg.activation) == ("pre", 1, "tanh", "tanh")

    def test_bert(self):
        cfg = parse_config(BERT)
        assert (cfg.norm_variant, cfg.zeta, cfg.gelu_mode, cfg.activation) == ("post", 1, "tanh", "tanh")

    @pytest.mark.parametrize("arch", ["rnn", "lstm"])
    def test_recurrent(self, arch):
        cfg = parse_config(TEXTS[arch])
        assert (cfg.activation, cfg.norm_variant, cfg.L) == ("tanh", "post", 2)

    def test_ffnn(self):
        cfg = parse_config(FFNN)
        assert (cfg.activation, cfg.norm_variant) == ("sigmoid", "post")

    @pytest.mark.parametrize("dims", [[4], [5, 4], [3, 3, 3]])
    def test_ffnn_depth_is_the_hidden_layer_count(self, dims):
        cfg = ModelConfig(arch="ffnn", d_e=2, vocab_size=5, max_len=3, hidden_dims=dims, L=9)
        assert cfg.L == len(dims)

    def test_explicit_values_win(self):
        assert parse_config(GPT2 + "norm_variant=post\n").norm_variant == "post"
        assert parse_config(BERT + "norm_variant=pre\n").norm_variant == "pre"
        assert parse_config(RNN + "activation=identity\n").activation == "identity"
        assert parse_config(FFNN + "activation=tanh\n").activation == "tanh"


class TestValidate:
    def test_unknown_arch(self):
        with pytest.raises(ConfigError, match="unknown arch 'cnn'"):
            ModelConfig(arch="cnn", d_e=2, vocab_size=3, max_len=4)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("key", ["d_e", "vocab_size", "max_len"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_shared_sizes_positive(self, arch, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be positive, got {value}"):
            parse_config(without(TEXTS[arch], key) + f"{key}={value}\n")

    @pytest.mark.parametrize("arch", ["gpt2", "bert"])
    @pytest.mark.parametrize("key", ["d_k", "d_v", "d_f", "M"])
    def test_transformer_sizes_positive(self, arch, key):
        with pytest.raises(ConfigError, match=f"{key} must be positive, got 0"):
            parse_config(without(TEXTS[arch], key) + f"{key}=0\n")

    @pytest.mark.parametrize("arch", ["gpt2", "bert"])
    def test_transformer_depth(self, arch):
        assert parse_config(without(TEXTS[arch], "L") + "L=0\n").L == 0
        with pytest.raises(ConfigError, match="L must be nonnegative, got -1"):
            parse_config(without(TEXTS[arch], "L") + "L=-1\n")

    @pytest.mark.parametrize("arch", ["gpt2", "bert"])
    @pytest.mark.parametrize("line,message", [
        ("zeta=2", "zeta must be 0 or 1, got 2"),
        ("zeta=-1", "zeta must be 0 or 1, got -1"),
        ("norm_variant=mid", "norm_variant must be 'post' or 'pre', got 'mid'"),
        ("gelu_mode=erf", "gelu_mode must be 'tanh' or 'exact', got 'erf'"),
    ])
    def test_transformer_options(self, arch, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(TEXTS[arch] + line + "\n")

    @pytest.mark.parametrize("arch", ["rnn", "lstm"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_recurrent_depth_positive(self, arch, value):
        with pytest.raises(ConfigError, match=f"L must be positive, got {value}"):
            parse_config(without(TEXTS[arch], "L") + f"L={value}\n")

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "identity"])
    def test_rnn_activations(self, activation):
        assert parse_config(RNN + f"activation={activation}\n").activation == activation

    def test_rnn_activation_checked(self):
        with pytest.raises(ConfigError, match="rnn activation must be tanh/sigmoid/identity, got 'relu'"):
            parse_config(RNN + "activation=relu\n")

    def test_ffnn_needs_a_hidden_layer(self):
        with pytest.raises(ConfigError, match="at least one hidden layer"):
            ModelConfig(arch="ffnn", d_e=2, vocab_size=3, max_len=4)

    @pytest.mark.parametrize("dims,index", [("0", 1), ("4,-3", 2), ("4,4,0", 3)])
    def test_ffnn_widths_positive(self, dims, index):
        with pytest.raises(ConfigError, match=f"hidden_dims\\[{index}\\] must be positive"):
            parse_config(without(FFNN, "hidden_dims") + f"hidden_dims={dims}\n")

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "identity"])
    def test_ffnn_activations(self, activation):
        assert parse_config(FFNN + f"activation={activation}\n").activation == activation

    def test_ffnn_activation_checked(self):
        with pytest.raises(ConfigError, match="ffnn activation must be sigmoid/tanh/identity, got 'relu'"):
            parse_config(FFNN + "activation=relu\n")

    def test_validate_rechecks_a_mutated_config(self):
        cfg = parse_config(GPT2)
        cfg.zeta = 3
        with pytest.raises(ConfigError, match="zeta must be 0 or 1"):
            cfg.validate()
