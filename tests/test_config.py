import functools
import json
import types
from typing import Literal, get_args, get_origin

import pytest

from subevents.cli import _build_parser, _resolve_config
from subevents.config import (
    DEFAULT_KS,
    OVERRIDABLE,
    PipelineConfig,
    apply_override,
    config_from_dict,
    load_config,
)
from subevents.errors import ConfigError
from subevents.extract import PhraseConfig

# A key that never existed, then the keys removed with the code paths they
# chose, each with a value the removed key accepted.
UNKNOWN_KEYS = {
    "rank.metric": "cosine",
    "rank.normalize_words": True,
    "rank.discount": "none",
    "cluster.normalized": False,
    "eval.nv_match": "bigram",
    "eval.phrase_match": "tokens",
}

class TestDefaults:
    def test_default_values(self):
        cfg = PipelineConfig()
        assert isinstance(cfg.phrase, PhraseConfig)
        assert cfg.phrase.min_count == 2
        assert cfg.phrase.threshold == 10.0
        assert cfg.filter_min_freq == 2
        assert cfg.dedupe is False
        assert cfg.rank.method == "moac"
        assert cfg.rank.oov_policy == "skip"
        assert cfg.cluster.k is None
        assert cfg.cluster.top_m == 1000
        assert cfg.cluster.seed == 0
        assert cfg.eval.ks == DEFAULT_KS
        assert cfg.paths.out_dir == "out"
        assert cfg.paths.ontology is None
        cfg.validate()

    def test_to_dict_round_trips(self):
        cfg = PipelineConfig()
        cfg.cluster.k = 8
        data = cfg.to_dict()
        assert data["cluster"]["k"] == 8
        assert data["eval"]["ks"] == list(DEFAULT_KS)
        rebuilt = config_from_dict(json.loads(json.dumps(data)))
        assert rebuilt == cfg


class TestFromDict:
    def test_partial_config_keeps_defaults(self):
        cfg = config_from_dict({"phrase": {"min_count": 3}})
        assert cfg.phrase.min_count == 3
        assert cfg.phrase.threshold == 10.0

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"bogus": 1})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"phrase": {"min_freq": 3}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError):
            config_from_dict({"phrase": 3})

    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])

    def test_int_for_float_and_null_for_optional(self):
        cfg = config_from_dict(
            {"phrase": {"threshold": 12}, "paths": {"parses": None}, "cluster": {"k": None}}
        )
        assert cfg.phrase.threshold == 12.0 and type(cfg.phrase.threshold) is float
        assert cfg.paths.parses is None and cfg.cluster.k is None

    def test_ks_must_be_int_list(self):
        with pytest.raises(ConfigError):
            config_from_dict({"eval": {"ks": "1,2,3"}})
        with pytest.raises(ConfigError):
            config_from_dict({"eval": {"ks": [1, 2.5]}})
        with pytest.raises(ConfigError):
            config_from_dict({"eval": {"ks": [True]}})
        cfg = config_from_dict({"eval": {"ks": [1, 5, 9]}})
        assert cfg.eval.ks == (1, 5, 9)


class TestValidate:
    def _raises(self, mutate):
        cfg = PipelineConfig()
        mutate(cfg)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_range_checks(self):
        self._raises(lambda c: setattr(c.phrase, "min_count", 0))
        self._raises(lambda c: setattr(c.phrase, "threshold", float("inf")))
        self._raises(lambda c: setattr(c, "filter_min_freq", 0))
        self._raises(lambda c: setattr(c.rank, "method", "tfidf"))
        self._raises(lambda c: setattr(c.rank, "oov_policy", "guess"))
        self._raises(lambda c: setattr(c.cluster, "k", 1))
        self._raises(lambda c: setattr(c.cluster, "top_m", 1))
        self._raises(lambda c: (setattr(c.cluster, "top_m", 10), setattr(c.cluster, "k", 11)))
        self._raises(lambda c: setattr(c.cluster, "seed", -1))
        self._raises(lambda c: setattr(c.eval, "ks", ()))
        self._raises(lambda c: setattr(c.eval, "ks", (-1, 2)))
        self._raises(lambda c: setattr(c.eval, "ks", (2, 2)))
        self._raises(lambda c: setattr(c.eval, "ks", (5, 2)))

    def test_cluster_k_none_is_valid(self):
        cfg = PipelineConfig()
        cfg.cluster.k = None
        cfg.validate()

    def test_cluster_k_may_equal_top_m(self):
        cfg = PipelineConfig()
        cfg.cluster.k = cfg.cluster.top_m = 10
        cfg.validate()


class TestLoadConfig:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cluster": {"k": 5}}), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.cluster.k == 5

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("\ufeff" + json.dumps({"cluster": {"k": 5}}), encoding="utf-8")
        assert load_config(path).cluster.k == 5

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_fixture_config_loads(self, fixtures_dir):
        cfg = load_config(fixtures_dir / "pipeline_config.json")
        assert cfg.cluster.k == 8
        assert cfg.cluster.top_m == 40


class TestOverrides:
    def test_every_documented_key_applies(self):
        samples = {
            "paths.corpus_labeled": "x.jsonl",
            "paths.corpus_unlabeled": "y.jsonl",
            "paths.parses": "p.conllu",
            "paths.vectors": "v.txt",
            "paths.ontology": "o.txt",
            "paths.stopwords": "s.txt",
            "paths.lexicon": "l.txt",
            "paths.out_dir": "elsewhere",
            "phrase.min_count": "3",
            "phrase.threshold": "5.5",
            "filter_min_freq": "4",
            "dedupe": "true",
            "rank.method": "baseline",
            "rank.oov_policy": "subword",
            "cluster.k": "6",
            "cluster.top_m": "50",
            "cluster.seed": "9",
            "eval.ks": "1,2,3",
        }
        cfg = PipelineConfig()
        for key, raw in samples.items():
            apply_override(cfg, key, raw)
        assert cfg.paths.out_dir == "elsewhere"
        assert cfg.phrase.min_count == 3
        assert cfg.phrase.threshold == 5.5
        assert cfg.filter_min_freq == 4
        assert cfg.dedupe is True
        assert cfg.rank.method == "baseline"
        assert cfg.rank.oov_policy == "subword"
        assert cfg.cluster.k == 6
        assert cfg.eval.ks == (1, 2, 3)
        cfg.validate()

    def test_empty_optional_path_clears_to_bundled(self):
        cfg = PipelineConfig()
        cfg.paths.ontology = "custom.txt"
        apply_override(cfg, "paths.ontology", "")
        assert cfg.paths.ontology is None

    def test_unknown_key_rejected(self, run_cli, tmp_path):
        for key, value in UNKNOWN_KEYS.items():
            with pytest.raises(ConfigError):
                apply_override(PipelineConfig(), key, json.dumps(value))
            section, name = key.split(".")
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({section: {name: value}}), encoding="utf-8")
            assert run_cli("extract", "--config", str(path)) == (
                1, "", f"error: unknown config key {key!r}\n"), key

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_override(PipelineConfig(), "cluster.k", "many")
        with pytest.raises(ConfigError):
            apply_override(PipelineConfig(), "dedupe", "maybe")
        with pytest.raises(ConfigError):
            apply_override(PipelineConfig(), "eval.ks", "1,two")

    def test_bool_spellings(self):
        cfg = PipelineConfig()
        for raw, expected in [
            ("true", True), ("1", True), ("yes", True), ("on", True),
            ("false", False), ("0", False), ("no", False), ("off", False),
            ("TRUE", True), ("Off", False),
        ]:
            apply_override(cfg, "dedupe", raw)
            assert cfg.dedupe is expected


def _get(cfg, dotted):
    return functools.reduce(getattr, dotted.split("."), cfg)


def _unwrap_optional(hint):
    """(inner annotation, whether None is allowed) for `hint`."""
    if get_origin(hint) is types.UnionType:
        (inner,) = [arg for arg in get_args(hint) if arg is not type(None)]
        return inner, True
    return hint, False


def _other_value(hint, default):
    """A valid non-default value for a field of annotation `hint`, and the
    text that sets it on the command line."""
    hint, _ = _unwrap_optional(hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        value = next(arg for arg in args if arg != default)
        return value, value
    if origin is tuple:
        return (1, 2, 3), "1,2,3"
    if hint is bool:
        return not default, str(not default).lower()
    if hint is int:
        return (default or 4) + 1, str((default or 4) + 1)
    if hint is float:
        return default + 0.5, repr(default + 0.5)
    if hint is str:
        return "elsewhere", "elsewhere"
    raise AssertionError(f"no sample value for annotation {hint}")


def _wrong_values(hint):
    """JSON values of the wrong type for a field of annotation `hint`."""
    hint, optional = _unwrap_optional(hint)
    origin = get_origin(hint)
    if origin is tuple:
        wrong = ["1,2", 3, [1.5], [True], [None]]
    elif origin is Literal:
        wrong = ["no-such-choice", 1, [get_args(hint)[0]]]
    elif hint is bool:
        wrong = ["false", "true", 0, 1]
    elif hint is int:
        wrong = ["8", 2.5, True]
    elif hint is float:
        wrong = ["x", "1.5", True]
    else:
        wrong = [["a"], 1, True]
    return wrong if optional else wrong + [None]


WRONG = [(key, wrong) for key, hint in OVERRIDABLE.items() for wrong in _wrong_values(hint)]


class TestSchema:
    def test_every_field_round_trips_through_its_flag_and_json(self):
        defaults = PipelineConfig()
        samples = {key: _other_value(hint, _get(defaults, key)) for key, hint in OVERRIDABLE.items()}
        argv = ["extract"]
        for key, (_, text) in samples.items():
            argv += [f"--{key}", text]
        cfg = _resolve_config(_build_parser().parse_args(argv))
        for key, (value, _) in samples.items():
            assert value != _get(defaults, key), key
            assert _get(cfg, key) == value and type(_get(cfg, key)) is type(value), key
        assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("key,wrong", WRONG, ids=[f"{k}={json.dumps(w)}" for k, w in WRONG])
    def test_wrong_json_type_exits_1_with_one_line(self, run_cli, tmp_path, key, wrong):
        *sections, name = key.split(".")
        data = node = {}
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = wrong
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli("extract", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1, err
