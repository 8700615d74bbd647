"""The four shipped difference models and the selection-string parser."""

from __future__ import annotations

import json
import re

from ..errors import ModelRestriction
from ..kernel import DifferenceModel
from ..morphisms import Morphism, from_table
from ..spaces import Space, codec_size, parse_space
from .findiff import FinDiffModel
from .modmaps import ModuleModel
from .smooth import Dual, SmoothModel
from .streams import (
    StreamModel,
    causality_check,
    simple_stream_derivative,
    stream_derivative,
    stream_linear_check,
    truncation,
)

__all__ = [
    "FinDiffModel",
    "SmoothModel",
    "ModuleModel",
    "StreamModel",
    "Dual",
    "get_model",
    "causality_check",
    "stream_derivative",
    "simple_stream_derivative",
    "stream_linear_check",
    "truncation",
    "load_table_primitive",
]


def get_model(text: str) -> DifferenceModel:
    """A new model for `findiff | smooth | module:r=<int> | streams:k=<int>`."""
    spec = text.strip()
    if spec == "findiff":
        model: DifferenceModel = FinDiffModel()
    elif spec == "smooth":
        model = SmoothModel()
    elif spec == "module" or spec.startswith("module:"):
        m = re.fullmatch(r"module(?::r=(-?\d+))?", spec)
        if not m:
            raise ModelRestriction(f"bad model string {text!r}")
        model = ModuleModel(int(m.group(1)) if m.group(1) else 2)
    elif spec == "streams" or spec.startswith("streams:"):
        m = re.fullmatch(r"streams(?::k=(\d+))?", spec)
        if not m:
            raise ModelRestriction(f"bad model string {text!r}")
        model = StreamModel(int(m.group(1)) if m.group(1) else 16)
    else:
        raise ModelRestriction(f"unknown model {text!r}")
    return model


def load_table_primitive(model: DifferenceModel, name: str, payload: str | dict) -> Morphism:
    """Register a table-valued primitive from JSON: {"space": "Z7", "table": [..]}."""
    data = json.loads(payload) if isinstance(payload, str) else payload
    space = parse_space(data["space"])
    table = data["table"]
    n = codec_size(space)
    if n is None or len(table) != n:
        raise ModelRestriction(
            f"table for {name!r} needs a finite group space covered exactly once"
        )
    m = from_table(space, space, table, model=model.tag, name=name)

    def factory(s: Space, _m=m) -> Morphism:
        if s != _m.dom:
            raise ModelRestriction(f"{name!r} is a table primitive on {data['space']}")
        return _m

    model.register_primitive(name, factory)
    return m
