import json

import pytest

from sparsetrails.config import (ConfigError, config_hash, load_config,
                                 make_dataset, make_model, network_spec, resolve)


def minimal(**overrides):
    cfg = {
        "dataset": {"kind": "rings", "n": 100, "noise": 0.2},
        "network": {"kind": "mlp", "input_dim": 2, "hidden_dim": 8,
                    "blocks": 2, "classes": 2},
        "split_index": 1,
        "heads": 2,
        "sparsity": 0.5,
        "train": {"total_steps": 20, "batch_size": 16},
    }
    cfg.update(overrides)
    return cfg


BAD_FIELDS = [
    ("dataset.limit", -5, "dataset.limit: must be a positive integer"),
    ("dataset.limit", 2.5, "dataset.limit: must be integer or null, got number"),
    ("dataset.seed", "abc", "dataset.seed: must be integer or null, got string"),
    ("dataset.test_images", "t.idx", "dataset.test_labels: required with dataset.test_images"),
    ("dataset.test_labels", "l.idx", "dataset.test_images: required with dataset.test_labels"),
    ("topology.normalize_by_mean", "no", "topology.normalize_by_mean: must be boolean"),
    ("topology.delta_t", 2.5, "topology.delta_t: must be integer, got number"),
    ("train.momentum", "0.9", "train.momentum: must be integer or number, got string"),
    ("train.total_steps", 2.5, "train.total_steps: must be integer, got number"),
    ("train.drop_last", 1, "train.drop_last: must be boolean, got integer"),
    ("train.beta1", 1.0, r"train: beta1 must be in \[0, 1\)"),
    ("train.beta2", -0.1, r"train: beta2 must be in \[0, 1\)"),
    ("train.adam_eps", 0, "train: adam_eps must be positive"),
]


class TestResolve:
    def test_minimal_config_resolves(self):
        cfg = resolve(minimal())
        assert cfg["allocation"] == "er"
        assert cfg["train"]["milestones"] == [0.25, 0.5, 0.75]

    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(ConfigError, match="sparsityy: unknown field"):
            resolve(minimal(sparsityy=0.5))

    def test_nested_unknown_field_names_path(self):
        bad = minimal()
        bad["train"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="train.learning_rate"):
            resolve(bad)

    def test_sparsity_one_names_field(self):
        with pytest.raises(ConfigError, match="sparsity: must be in"):
            resolve(minimal(sparsity=1.0))

    def test_split_index_beyond_blocks_rejected(self):
        with pytest.raises(ConfigError, match="split_index"):
            resolve(minimal(split_index=3))

    def test_bad_strategy_rejected(self):
        bad = minimal()
        bad["topology"] = {"strategy": "hopscotch"}
        with pytest.raises(ConfigError, match="topology"):
            resolve(bad)

    def test_seed_and_out_overrides(self):
        cfg = resolve(minimal(), seed=9, out_dir="/tmp/x")
        assert cfg["seed"] == 9 and cfg["out_dir"] == "/tmp/x"

    def test_idx_requires_paths(self):
        bad = minimal()
        bad["dataset"] = {"kind": "idx"}
        with pytest.raises(ConfigError, match="dataset.images"):
            resolve(bad)

    def test_explicit_layer_network(self):
        cfg = minimal()
        cfg["network"] = {
            "kind": "layers",
            "input_shape": [2],
            "stem": [{"kind": "linear", "in": 2, "out": 4}, {"kind": "relu"}],
            "blocks": [[{"kind": "linear", "in": 4, "out": 4}, {"kind": "relu"}]],
            "classifier": [{"kind": "linear", "in": 4, "out": 2}],
        }
        cfg["split_index"] = 0
        spec = network_spec(resolve(cfg))
        assert spec.num_blocks == 1

    def test_inconsistent_layer_shapes_rejected(self):
        cfg = minimal()
        cfg["network"] = {
            "kind": "layers", "input_shape": [2],
            "stem": [], "blocks": [[{"kind": "linear", "in": 3, "out": 4}]],
            "classifier": [{"kind": "linear", "in": 4, "out": 2}],
        }
        cfg["split_index"] = 0
        with pytest.raises(ConfigError, match="network"):
            resolve(cfg)


    @pytest.mark.parametrize("path, value, message", BAD_FIELDS,
                             ids=[f"{path}={value!r}" for path, value, _ in BAD_FIELDS])
    def test_mistyped_or_out_of_range_field_names_it(self, path, value, message):
        cfg = minimal()
        section, key = path.split(".")
        cfg.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=message):
            resolve(cfg)


class TestHash:
    def test_hash_ignores_out_dir(self):
        a = resolve(minimal(), out_dir="/tmp/a")
        b = resolve(minimal(), out_dir="/tmp/b")
        assert config_hash(a) == config_hash(b)

    def test_hash_sensitive_to_seed_and_fields(self):
        a = resolve(minimal(), seed=0)
        b = resolve(minimal(), seed=1)
        c = resolve(minimal(sparsity=0.6), seed=0)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestBuilders:
    def test_dataset_split_sizes(self):
        train, test = make_dataset(resolve(minimal()))
        assert len(train) == 80 and len(test) == 20

    def test_dataset_deterministic_per_seed(self):
        a_train, _ = make_dataset(resolve(minimal(), seed=5))
        b_train, _ = make_dataset(resolve(minimal(), seed=5))
        assert a_train.inputs.tobytes() == b_train.inputs.tobytes()

    def test_model_from_config(self):
        model = make_model(resolve(minimal()))
        assert model.num_heads == 2
        assert model.split_index == 1

    def test_oneshot_builds_dense(self):
        cfg = minimal()
        cfg["topology"] = {"strategy": "prune_oneshot"}
        model = make_model(resolve(cfg))
        for _, mt in model.masked_layers(0):
            assert mt.mask.all()

    def test_independent_members_build(self):
        model = make_model(resolve(minimal(independent_members=True)))
        assert model.independent and model.backbone == []


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal()))
    cfg = load_config(str(path), seed=3)
    assert cfg["seed"] == 3

    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))
