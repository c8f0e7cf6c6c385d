"""Tests of the one JSON-to-config reader, ``dynamics.from_json``, and of
the value rule that system config files and generation overrides share."""

import json
import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physrec.dynamics import (
    BUILTIN_NAMES,
    ConfigError,
    SpecError,
    builtin_system,
    dump_system_config,
    from_json,
    load_system_config,
)
from physrec.harness import (
    _PRESETS,
    EXPERIMENTS,
    ExperimentConfig,
    generate_benchmark_data,
)
from physrec.neural import ARCHS, TrainConfig

EXPERIMENT_ERRORS = [
    ({"generation": [1]},
     r"^ExperimentConfig\.generation must be an object or a list of \[key, value\] pairs, "
     r"got \[1\]$"),
    ({"generation": [["k"]]}, r"^ExperimentConfig\.generation must be an object or a list"),
    ({"mask": 5}, r"^ExperimentConfig\.mask must be \[int, \.\.\.\], got 5$"),
    ({"mask": [1, 0.5]}, r"^ExperimentConfig\.mask\[1\] must be int, got 0\.5$"),
    ({"injected_shifts": 3},
     r"^ExperimentConfig\.injected_shifts must be \[int, \.\.\.\], got 3$"),
    ({"train": {"head_layers": 6}},
     r"^ExperimentConfig\.train\.head_layers must be \[int, \.\.\.\], got 6$"),
    ({"train": {"epochs": 2.5}}, r"^ExperimentConfig\.train\.epochs must be int, got 2\.5$"),
    ({"train": {"lr": "0.1"}}, r"^ExperimentConfig\.train\.lr must be float, got '0\.1'$"),
    ({"train": {"epochs": True}}, r"^ExperimentConfig\.train\.epochs must be int, got True$"),
    # a config saved while perturbation was a field beside the generation overrides
    ({"perturbation": False}, r"^unknown ExperimentConfig keys: perturbation$"),
    ({"seed": None}, r"^ExperimentConfig\.seed must be int, got None$"),
    ({"system": 3}, r"^ExperimentConfig\.system must be str, got 3$"),
    ({"train": [1]}, r"^ExperimentConfig\.train must be a JSON object, got list$"),
    ({"train": {"explicit_loss": True}},
     r"^ExperimentConfig\.train: unknown TrainConfig keys: explicit_loss$"),
    # a config saved while the cell's step count was a setting
    ({"train": {"epochs": 1, "unfold_substeps": 6}},
     r"^ExperimentConfig\.train: unknown TrainConfig keys: unfold_substeps$"),
    ({"bogus": 1}, r"^unknown ExperimentConfig keys: bogus$"),
]


@pytest.mark.parametrize("doc,message", EXPERIMENT_ERRORS)
def test_a_config_value_of_the_wrong_type_is_named(doc, message):
    with pytest.raises(ConfigError, match=message):
        from_json(ExperimentConfig, doc)


EXPERIMENT_RULES = [
    ({"experiment": "c9"}, "experiment must be one of c1, c2, c5, aid, eeg, single, got 'c9'"),
    ({"arch": "lstm"}, "arch must be one of ltc, ctrnn, node, sindyc, got 'lstm'"),
    ({"k_window": 1}, "k_window must be >= 2, got 1"),
    ({"split_ratio": 0}, r"split_ratio must be in \(0, 1\], got 0\.0"),
    ({"split_ratio": 1.5}, r"split_ratio must be in \(0, 1\], got 1\.5"),
    ({"sindy_degree": 0}, "sindy_degree must be >= 1, got 0"),
    ({"mask": [0, 0]}, r"mask must be null or 0/1 entries with at least one 1, got \(0, 0\)"),
    ({"mask": [1, 2]}, r"mask must be null or 0/1 entries with at least one 1, got \(1, 2\)"),
    ({"injected_shifts": [3, -1]}, r"injected_shifts must be whole numbers >= 0, got \(3, -1\)"),
]


@pytest.mark.parametrize("doc,message", EXPERIMENT_RULES)
def test_experiment_config_rejects_values_outside_its_rules(doc, message):
    with pytest.raises(SpecError, match=f"^ExperimentConfig.{message}$"):
        from_json(ExperimentConfig, doc)


NAN, INF = float("nan"), float("inf")
SAFEGUARD_RULES = [
    (TrainConfig, "grad_clip", NAN, "finite and >= 0"),
    (TrainConfig, "grad_clip", -1.0, "finite and >= 0"),
    (TrainConfig, "grad_clip", INF, "finite and >= 0"),
    (TrainConfig, "weight_grad_clip", -1.0, "finite and >= 0"),
    (TrainConfig, "weight_grad_clip", NAN, "finite and >= 0"),
    (TrainConfig, "adam_eps", INF, "finite and > 0"),
    (TrainConfig, "adam_eps", 0.0, "finite and > 0"),
    (TrainConfig, "adam_eps", NAN, "finite and > 0"),
    (TrainConfig, "lr", INF, "finite and > 0"),
    (TrainConfig, "fd_eps", INF, "finite and > 0"),
    (TrainConfig, "s_max", INF, "finite and >= 0"),
    (TrainConfig, "s_max", NAN, "finite and >= 0"),
    (ExperimentConfig, "sindy_threshold", NAN, "finite and >= 0"),
    (ExperimentConfig, "sindy_threshold", -0.05, "finite and >= 0"),
    (ExperimentConfig, "sindy_lambda", INF, "finite and >= 0"),
    (ExperimentConfig, "sindy_lambda", -1e-6, "finite and >= 0"),
]


@pytest.mark.parametrize(
    "cls,field,value,want", SAFEGUARD_RULES,
    ids=[f"{field}={value}" for _, field, value, _ in SAFEGUARD_RULES],
)
def test_a_config_built_in_python_rejects_a_value_that_disables_a_safeguard(
    cls, field, value, want
):
    message = rf"^{cls.__name__}\.{field} must be {want}, got {value!r}$"
    with pytest.raises(SpecError, match=message):
        cls(**{field: value})


TUPLE_RULES = [
    # a repeated channel's second shift would overwrite the first's
    (TrainConfig, "shift_channels", (0, 0), "free of repeats"),
    (TrainConfig, "shift_channels", (1, 0, 1), "free of repeats"),
    (ExperimentConfig, "injected_shifts", (-1,), "whole numbers >= 0"),
    (ExperimentConfig, "injected_shifts", (3, 0, -2), "whole numbers >= 0"),
    # the data would be shifted by int(s) samples under the label s
    (ExperimentConfig, "injected_shifts", (2.5,), "whole numbers >= 0"),
    (ExperimentConfig, "injected_shifts", (3, float("inf")), "whole numbers >= 0"),
    (ExperimentConfig, "injected_shifts", (float("nan"),), "whole numbers >= 0"),
]


@pytest.mark.parametrize(
    "cls,field,value,want", TUPLE_RULES,
    ids=[f"{field}={value}" for _, field, value, _ in TUPLE_RULES],
)
def test_a_config_built_in_python_rejects_a_tuple_outside_its_rule(cls, field, value, want):
    message = f"{cls.__name__}.{field} must be {want}, got {value!r}"
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        cls(**{field: value})


def test_a_json_int_for_a_float_field_is_the_float():
    cfg = from_json(ExperimentConfig, {"split_ratio": 1, "train": {"lr": 1, "s_max": 25}})
    want = ExperimentConfig(split_ratio=1.0, train=TrainConfig(lr=1.0))
    assert cfg == want and cfg.digest() == want.digest()
    assert type(cfg.split_ratio) is float and type(cfg.train.lr) is float


_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_nonneg = st.floats(0.0, allow_infinity=False, width=64)
_unit = st.floats(0.0, 1.0, exclude_max=True)
TRAIN_CONFIGS = st.builds(
    TrainConfig,
    epochs=st.integers(0, 10**6),
    lr=st.floats(1e-12, 1e3),
    beta1=_unit,
    beta2=_unit,
    adam_eps=st.floats(0.0, exclude_min=True, allow_infinity=False, width=64),
    batch_size=st.integers(1, 512),
    solve_substeps=st.integers(1, 16),
    s_max=st.floats(0.0, 1e3),
    shift_channels=st.lists(st.integers(0, 4), max_size=3, unique=True).map(tuple),
    seed=st.integers(-(2**40), 2**40),
    hidden_width=st.integers(1, 256),
    head_layers=st.lists(st.integers(1, 256), max_size=3).map(tuple),
    dropout=_unit,
    fd_eps=st.floats(1e-12, 1.0),
    grad_clip=_nonneg,
    weight_grad_clip=_nonneg,
    head_init_scale=_floats,
    coeff_bias_init=_floats,
    warmup_epochs=st.integers(0, 100),
)
_json_scalars = st.one_of(st.integers(-1000, 1000), _floats, st.booleans(), st.text(max_size=5))
EXPERIMENT_CONFIGS = st.builds(
    ExperimentConfig,
    experiment=st.sampled_from(EXPERIMENTS),
    system=st.text(max_size=12),
    arch=st.sampled_from((*ARCHS, "sindyc")),
    seed=st.integers(-(2**40), 2**40),
    mask=st.none() | st.lists(st.sampled_from((0, 1)), min_size=1, max_size=4)
    .filter(lambda m: 1 in m).map(tuple),
    injected_shifts=st.lists(st.integers(0, 50), max_size=4).map(tuple),
    rate_points=st.integers(1, 10),
    k_window=st.integers(2, 10**4),
    split_ratio=st.floats(0.0, 1.0, exclude_min=True),
    train=TRAIN_CONFIGS,
    generation=st.dictionaries(st.text(max_size=8), _json_scalars, max_size=4)
    .map(lambda d: tuple(sorted(d.items()))),
    sindy_degree=st.integers(1, 5),
    sindy_threshold=_nonneg,
    sindy_lambda=_nonneg,
)


@settings(max_examples=60, deadline=None)
@given(cfg=st.one_of(TRAIN_CONFIGS, EXPERIMENT_CONFIGS))
def test_a_config_survives_asdict_json_and_from_json(cfg):
    back = from_json(type(cfg), json.loads(json.dumps(asdict(cfg))))
    assert back == cfg
    if isinstance(cfg, ExperimentConfig):
        assert back.digest() == cfg.digest()


def _system_doc(tmp_path, name="lorenz"):
    spec, coeffs = builtin_system(name)
    path = tmp_path / "system.json"
    dump_system_config(spec, coeffs, path)
    return path, json.loads(path.read_text())


def _set(doc, keys, value):
    *head, last = keys
    for k in head:
        doc = doc[k]
    doc[last] = value


SYSTEM_ERRORS = [
    (("f_terms", 0, "factors", 0, "power"), 2.9,
     r"f_terms\[0\]\.factors\[0\]\.power must be int, got 2\.9$"),
    (("f_terms", 1, "state"), 0.7, r"f_terms\[1\]\.state must be int, got 0\.7$"),
    (("f_terms", 2), 3, r"f_terms\[2\] must be a JSON object, got int$"),
    (("g_terms", 0, "bogus"), 1, r"g_terms\[0\]: unknown Term keys: bogus$"),
    (("g_terms", 0, "input"), "0", r"g_terms\[0\]\.input must be int, got '0'$"),
    (("f_terms", 0, "factors", 0, "power"), 0,
     r"f_terms\[0\]\.factors\[0\]: factor power must be >= 1, got 0$"),
    (("f_terms", 0, "factors"), {"var": 0}, r"f_terms\[0\]\.factors must be \[Factor, \.\.\.\]"),
    (("coeffs", 1), 7, r"coeffs\[1\] must be a JSON object, got int$"),
    (("coeffs", 0, "value"), "10", r"coeffs\[0\]\.value must be float, got '10'$"),
    (("resting",), [0, "x", 0], r"resting\[1\] must be float, got 'x'$"),
    (("n",), "3", r": n must be int, got '3'$"),
]


@pytest.mark.parametrize("keys,value,message", SYSTEM_ERRORS)
def test_a_system_config_value_of_the_wrong_type_is_named(keys, value, message, tmp_path):
    path, doc = _system_doc(tmp_path)
    _set(doc, keys, value)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=message):
        load_system_config(path)


def test_a_system_config_names_a_missing_field(tmp_path):
    path, doc = _system_doc(tmp_path)
    del doc["f_terms"][0]["factors"][0]["var"]
    path.write_text(json.dumps(doc))
    message = r"f_terms\[0\]\.factors\[0\]: missing required field 'var'"
    with pytest.raises(ConfigError, match=message):
        load_system_config(path)
    path.write_text(json.dumps([doc]))
    with pytest.raises(ConfigError, match="a system config must be a JSON object, got list"):
        load_system_config(path)


@pytest.mark.parametrize("system", sorted({*BUILTIN_NAMES, *_PRESETS}))
def test_dump_then_load_gives_an_equal_system(system, tmp_path):
    spec, coeffs = _PRESETS[system].system() if system in _PRESETS else builtin_system(system)
    path = tmp_path / "system.json"
    dump_system_config(spec, coeffs, path)
    spec2, coeffs2 = load_system_config(path)
    assert spec2 == spec
    assert coeffs2.values.tolist() == coeffs.values.tolist()


def _refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("system", sorted({*BUILTIN_NAMES, *_PRESETS}))
def test_a_system_dump_is_strict_json_indented_by_two(system, tmp_path):
    spec, coeffs = _PRESETS[system].system() if system in _PRESETS else builtin_system(system)
    path = tmp_path / "system.json"
    dump_system_config(spec, coeffs, path)
    text = path.read_text()
    assert text == json.dumps(json.loads(text, parse_constant=_refuse), indent=2) + "\n"


def _experiment(text, tmp_path):
    return from_json(ExperimentConfig, json.loads(text))


def _system(edit, tmp_path):
    keys, text = edit
    path, doc = _system_doc(tmp_path, "lotka_volterra")
    _set(doc, keys, json.loads(text))
    path.write_text(json.dumps(doc))
    return load_system_config(path)


def _override(text, tmp_path):
    return generate_benchmark_data("scalar", {"n_traces": 1, "k": 40, **json.loads(text)})


NON_FINITE = [
    (_experiment, '{"train": {"grad_clip": NaN}}',
     r"^ExperimentConfig\.train\.grad_clip must be a finite float, got nan$"),
    (_experiment, '{"sindy_threshold": NaN}',
     r"^ExperimentConfig\.sindy_threshold must be a finite float, got nan$"),
    (_experiment, '{"train": {"lr": 1e400}}',
     r"^ExperimentConfig\.train\.lr must be a finite float, got inf$"),
    (_experiment, '{"train": {"lr": 1%s}}' % ("0" * 400),
     r"^ExperimentConfig\.train\.lr must be a finite float, got 10000"),
    (_system, (("resting",), "[NaN, 20.0]"), r"resting\[0\] must be a finite float, got nan$"),
    (_system, (("f_terms", 1, "weight"), "-Infinity"),
     r"f_terms\[1\]\.weight must be a finite float, got -inf$"),
    (_override, '{"amp": [NaN, 1.0]}',
     r"^preset 'scalar' override 'amp'\[0\] must be a finite float, got nan$"),
]


@pytest.mark.parametrize(
    "load,arg,message", NON_FINITE,
    ids=["grad_clip", "sindy_threshold", "overflow", "huge_int", "resting", "weight", "amp"],
)
def test_a_non_finite_float_is_named(load, arg, message, tmp_path):
    with pytest.raises(ConfigError, match=message):
        load(arg, tmp_path)


OVERRIDE_ERRORS = [
    ({"perturbation": "no"}, "'perturbation' must be bool, got 'no'"),
    ({"k": 50.5}, "'k' must be int, got 50.5"),
    ({"n_traces": "2"}, "'n_traces' must be int, got '2'"),
    ({"width": 3}, r"'width' must be \[float, float\], got 3"),
    ({"width": [0.2, 0.3, 0.4]}, r"'width' must be \[float, float\], got \[0\.2, 0\.3, 0\.4\]"),
    ({"amp": [1, "2"]}, r"'amp'\[1\] must be float, got '2'"),
    ({"injected_shift": 1.5}, "'injected_shift' must be int, got 1.5"),
]


@pytest.mark.parametrize("overrides,message", OVERRIDE_ERRORS)
def test_a_generation_override_of_the_wrong_type_is_named(overrides, message):
    with pytest.raises(ConfigError, match=f"^preset 'scalar' override {message}$"):
        generate_benchmark_data("scalar", {"n_traces": 1, "k": 40, **overrides})


def test_a_generation_override_takes_its_default_type():
    # an int for a float key is the float, a pair of ints the pair of floats
    ints = generate_benchmark_data("scalar", {"n_traces": 1, "k": 40, "dt": 1, "amp": [1, 2]})
    floats = generate_benchmark_data(
        "scalar", {"n_traces": 1, "k": 40, "dt": 1.0, "amp": (1.0, 2.0)}
    )
    assert ints[3] == floats[3]
    assert ints[2][0].y.tolist() == floats[2][0].y.tolist()
