"""`morsepoly embed`: exact coordinates of the embedded order complex."""

from __future__ import annotations

from types import SimpleNamespace

from .. import jsonio
from ..geometry import embed_vertices
from ..normalization import normalize
from . import emit, load_input, load_morse, write


def _text(payload: dict):
    yield f"dimension: {payload['dimension']}"
    for e, vec in payload["coordinates"].items():
        yield f"{e}: ({', '.join(vec)})"


def run(args: SimpleNamespace) -> int:
    loaded = load_input(args.input_path)
    f = load_morse(args, loaded)
    g = normalize(loaded.poset, f)
    embedding = embed_vertices(loaded.poset, g)
    payload = jsonio.embedding_to_obj(embedding)
    if args.csv_path:
        write(args.csv_path, jsonio.embedding_obj_to_csv(payload))
    emit(args, payload, _text)
    return 0
