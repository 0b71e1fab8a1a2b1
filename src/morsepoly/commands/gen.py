"""`morsepoly gen`: seeded random complexes and discrete Morse functions."""

from __future__ import annotations

from types import SimpleNamespace

from .. import jsonio
from ..errors import MorsePolyError
from ..generators import gen_complex, gen_morse
from . import emit, load_input


def run(args: SimpleNamespace) -> int:
    if args.kind == "complex":
        spec = gen_complex(args.seed, args.vertices, args.dimension, args.density)
        emit(args, jsonio.complex_to_obj(spec))
        return 0
    if args.kind == "morse":
        if not args.input_path:
            raise MorsePolyError("gen --kind morse requires --in POSET_OR_COMPLEX")
        loaded = load_input(args.input_path)
        f = gen_morse(args.seed, loaded.poset)
        emit(args, jsonio.morse_to_obj(f))
        return 0
    raise MorsePolyError(f"unknown gen kind {args.kind!r}")
