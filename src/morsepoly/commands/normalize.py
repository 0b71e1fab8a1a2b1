"""`morsepoly normalize`: the equivalent injective, obstruction-free function."""

from __future__ import annotations

from types import SimpleNamespace

from .. import jsonio
from ..normalization import normalize
from . import emit, load_input, load_morse


def run(args: SimpleNamespace) -> int:
    loaded = load_input(args.input_path)
    f = load_morse(args, loaded)
    g = normalize(loaded.poset, f)
    if args.fmt == "json":
        emit(args, jsonio.dumps_canonical(jsonio.morse_to_obj(g)))
    else:
        lines = [f"{e}: {jsonio.format_rational(v)}" for e, v in g.sorted_items()]
        emit(args, "\n".join(lines) + "\n")
    return 0
