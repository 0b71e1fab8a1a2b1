"""`morsepoly normalize`: the equivalent injective, obstruction-free function."""

from __future__ import annotations

from types import SimpleNamespace

from .. import jsonio
from ..normalization import normalize
from . import emit, load_input, load_morse


def _text(payload: dict):
    for e, v in payload["values"].items():
        yield f"{e}: {v}"


def run(args: SimpleNamespace) -> int:
    loaded = load_input(args.input_path)
    f = load_morse(args, loaded)
    emit(args, jsonio.morse_to_obj(normalize(loaded.poset, f)), _text)
    return 0
