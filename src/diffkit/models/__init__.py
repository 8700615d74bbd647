"""The four shipped difference models and the selection-string parser."""

from __future__ import annotations

import json
import re

from ..errors import InvalidArgument, ModelRestriction
from ..kernel import DifferenceModel
from ..morphisms import Morphism, from_table
from ..spaces import Space, codec_size, format_space, parse_space
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
    "read_table_json",
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


def read_table_json(payload: str | bytes | dict, key: str, what: str) -> tuple[Space, list]:
    """The space and the list under `key` of a table file's JSON (or of the
    object itself): `{"space": "<space>", key: [...]}`. InvalidArgument,
    naming `what`, for anything else."""
    if not isinstance(payload, dict):
        try:
            payload = json.loads(payload)
        except ValueError as exc:  # not JSON, or not text
            raise InvalidArgument(f"{what} is not JSON: {exc}") from None
    if not (isinstance(payload, dict) and isinstance(payload.get("space"), str)
            and isinstance(payload.get(key), list)):
        raise InvalidArgument(f'{what} must be a JSON object {{"space": "<space>", "{key}": [...]}}')
    return parse_space(payload["space"]), payload[key]


def load_table_primitive(model: DifferenceModel, name: str,
                         payload: str | bytes | dict) -> Morphism:
    """Register a table-valued primitive from JSON: {"space": "Z7", "table": [..]}."""
    space, table = read_table_json(payload, "table", f"table {name!r}")
    n = codec_size(space)
    if n is None or len(table) != n:
        raise ModelRestriction(
            f"table for {name!r} needs a finite group space covered exactly once"
        )
    m = from_table(space, space, table, model=model.tag, name=name)

    def factory(s: Space, _m=m) -> Morphism:
        if s != _m.dom:
            raise ModelRestriction(f"{name!r} is a table primitive on {format_space(_m.dom)}")
        return _m

    model.register_primitive(name, factory)
    return m
