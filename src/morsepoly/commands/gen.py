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
    # Both parsers check --kind against its choices, so it is "morse" here.
    if not args.input_path:
        raise MorsePolyError("gen --kind morse requires --in POSET_OR_COMPLEX")
    _, poset = load_input(args.input_path)
    emit(args, jsonio.morse_to_obj(gen_morse(args.seed, poset)))
    return 0
