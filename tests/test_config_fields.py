"""Every config field obeys the shared input rules of ``archlab.errors``: a
number field takes only finite numbers, and a list field only a list whose
every item is checked; and every config file holds its dataclass's own
fields, which ``build_config`` reads back unchanged. The fields are
enumerated from the config classes, so a field added later obeys the rules
or fails here."""

import json
import math
from dataclasses import MISSING, asdict, fields, replace

import pytest

from archlab.datasets import SyntheticSpec
from archlab.deep_aa import DeepAaArch, DeepAaHyper
from archlab.errors import ParameterError, build_config
from archlab.linear_aa import LinearAaConfig

# one valid instance of each config class
CONFIGS = [SyntheticSpec(n=10, p=3, k=3), LinearAaConfig(k=2), DeepAaHyper(),
           DeepAaArch(input_dim=3, k=3)]


def annotated(kind: str):
    """(config, field name) for each field whose annotation names ``kind``;
    the modules postpone annotations, so each is a string such as
    ``"tuple | None"``."""
    return [pytest.param(cfg, f.name, id=f"{type(cfg).__name__}.{f.name}")
            for cfg in CONFIGS for f in fields(cfg) if kind in str(f.type).split(" | ")]


FLOAT_FIELDS = annotated("float")
LIST_FIELDS = annotated("tuple")


def test_the_fields_are_found():
    assert {p.values[1] for p in FLOAT_FIELDS} >= {
        "sigma2", "rel_tol", "lambda0", "lambda_growth", "at_weight", "side_weight", "lr"}
    assert {p.values[1] for p in LIST_FIELDS} == {
        "alpha", "encoder_hidden", "decoder_hidden", "side_hidden"}


@pytest.mark.parametrize("cfg, name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "beyond-float"])
def test_float_field_rejects_non_finite(cfg, name, value):
    with pytest.raises(ParameterError, match=f"field '{name}' must be a finite number"):
        replace(cfg, **{name: value})


@pytest.mark.parametrize("cfg, name", LIST_FIELDS)
@pytest.mark.parametrize("value", [[1, True, 1], 1, "111", {"a": 1}],
                         ids=["boolean-item", "number", "string", "object"])
def test_list_field_rejects_boolean_items_and_non_lists(cfg, name, value):
    with pytest.raises(ParameterError, match=f"field '{name}'"):
        replace(cfg, **{name: value})


# one instance of each config class with every field away from its default
NON_DEFAULT = [
    SyntheticSpec(n=5, p=4, k=3, sigma2=0.1, embed_seed=7, sample_seed=8, warp="exp",
                  warp_dim=2, alpha=(1.0, 2.0, 3.0)),
    LinearAaConfig(k=4, max_outer_iters=50, rel_tol=1e-8, seed=3),
    DeepAaArch(input_dim=5, k=4, encoder_hidden=(16, 8), decoder_hidden=(12,),
               side_hidden=(6,), activation="tanh"),
    DeepAaHyper(lambda0=2.0, lambda_growth=1.05, lambda_every=100, at_weight=0.5,
                side_weight=2.0, lr=1e-2, batch=32, epochs=3, seed=9),
]


@pytest.mark.parametrize("cfg", NON_DEFAULT, ids=lambda cfg: type(cfg).__name__)
def test_config_survives_json_round_trip(cfg):
    # a field added later is set here, so one that needs a translation of
    # its own between the file and the dataclass fails
    assert all(getattr(cfg, f.name) != f.default for f in fields(cfg) if f.default is not MISSING)
    d = asdict(cfg)
    assert getattr(cfg, "to_dict", lambda: d)() == d
    again = build_config(type(cfg), json.loads(json.dumps(d)), "config")
    assert again == cfg and hash(again) == hash(cfg)
