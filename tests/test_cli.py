"""CLI behavior: exit codes, formats, and byte-level determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import importlib
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsepoly import (
    chain_index,
    commands,
    complexes,
    generators,
    geometry,
    hypotheses,
    jsonio,
    morse,
    normalization,
    oracles,
)
from morsepoly import poset as poset_module
from morsepoly.cli import COMMANDS as OPTIONS
from morsepoly.cli import _join_gen_numbers, build_parser, main, parse_fast
from morsepoly.commands import check as check_command
from morsepoly.commands import verify as verify_command
from morsepoly.complexes import face_poset_cellular, face_poset_simplicial
from morsepoly.errors import MalformedSpec, MorsePolyError
from morsepoly.generators import gen_complex, gen_morse
from morsepoly.jsonio import (
    complex_from_obj, complex_to_obj, morse_from_obj, morse_to_obj, poset_from_obj,
)
from tests.conftest import (
    CUBICAL, SMALL_FACES, build_two_cycles_spec, cube, cubical_cone, cubical_torus,
    full_boundaries, product, torus,
)

ROOT = Path(__file__).resolve().parent.parent
TRIANGLE = {"kind": "simplicial", "maximal_simplices": [["1", "2", "3"]]}
# One handler module per command.
COMMANDS = sorted(module.name for module in pkgutil.iter_modules(commands.__path__))
CHAIN = {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]}
CHAIN_MORSE = {"values": {"0": "2", "1": "1", "2": "0"}}
EDGE = {"elements": ["a", "b", "e"], "covers": [["a", "e"], ["b", "e"]]}
EDGE_MORSE = {"values": {"a": "0", "b": "2", "e": "1"}}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return tmp_path, write


class TestVerify:
    def test_triangle_succeeds(self, files, capsys):
        _, write = files
        code = main(["verify", "--in", write("t.json", TRIANGLE)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "verified"
        totals = payload["totals"]
        assert totals == {
            "sum": 1,
            "euler_characteristic": 1,
            "n_even_critical": 4,
            "n_odd_critical": 3,
        }
        by_element = {e["element"]: e for e in payload["entries"]}
        assert by_element["1"]["computed"] == 1
        assert by_element["1,2"]["computed"] == -1
        assert by_element["1,2,3"]["geometric"] == 1
        assert all(e["computed"] == e["predicted"] for e in payload["entries"])
        assert payload["critical_by_dimension"] == [3, 3, 1]

    def test_edge_poset(self, files, capsys):
        _, write = files
        code = main(
            ["verify", "--in", write("e.json", EDGE), "--morse", write("f.json", EDGE_MORSE)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["computed"] for e in payload["entries"]] == [1, 0, 0]

    def test_chain_counterexample_exits_2(self, files, capsys):
        _, write = files
        code = main(
            [
                "verify",
                "--in", write("c.json", CHAIN),
                "--morse", write("f.json", CHAIN_MORSE),
            ]
        )
        assert code == 2
        assert "2-wide" in capsys.readouterr().err

    def test_poset_without_morse_exits_2(self, files, capsys):
        _, write = files
        assert main(["verify", "--in", write("e.json", EDGE)]) == 2

    def test_byte_identical_reruns(self, files):
        tmp_path, write = files
        poset = write("t.json", TRIANGLE)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--in", poset, "--out", str(out1)]) == 0
        assert main(["verify", "--in", poset, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_poset_verifies_trivially(self, files, capsys):
        _, write = files
        empty = write("empty.json", {"elements": [], "covers": []})
        morse = write("emptyf.json", {"values": {}})
        assert main(["verify", "--in", empty, "--morse", morse]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == []
        assert payload["totals"]["sum"] == 0 == payload["totals"]["euler_characteristic"]

    def test_geometric_disagreement_exits_1(self, files, capsys, monkeypatch):
        _, write = files

        witness = geometry.lower_star_indices

        def skewed(poset, embedding):
            indices = witness(poset, embedding)
            indices["1"] += 1
            return indices

        monkeypatch.setattr(verify_command, "lower_star_indices", skewed)
        assert main(["verify", "--in", write("t.json", TRIANGLE)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "mismatch"
        assert payload["mismatches"] == [{"element": "1", "geometric": 2, "combinatorial": 1}]


class TestVerifySinglePass:
    """One `verify` run derives each fact once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def count(name, *modules, key=None):
            for module in modules:
                original = getattr(module, name)

                def wrapper(*args, _original=original, **kwargs):
                    calls[key(*args) if key else name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, wrapper)

        count("_normalize_trace", normalization, chain_index)
        count("is_two_wide", normalization, hypotheses)
        count("find_troubled", normalization)
        count("_find_troubled", normalization)
        count("_require_general", chain_index)
        count("_index_at", chain_index, key=lambda poset, g, b: b)
        count("check_hypotheses", chain_index, hypotheses)
        # The one Kahn walk behind every load, which closes, reduces and
        # grades the poset; Hall's recursion over the whole poset or over
        # one index support, the check of a caller's parity, and the
        # membership check behind the validating accessors.
        count("_order", poset_module, complexes)
        count("_chain_weights", chain_index, hypotheses,
              key=lambda poset, members: "whole Hall" if members is poset.elements
              else "support Hall")
        count("validate_parity_rank", hypotheses)
        count("require", poset_module.Poset)
        # The chain walk the oracles list chains with, and the order
        # complex they build from it.
        count("enumerate_chains", oracles)
        count("order_complex", oracles)
        # Whole-function checks: every one is a scan of all elements; a
        # scan of a changed element and its covers is a local recheck.
        count("classify", morse, normalization, complexes, generators)
        count("_scan", morse,
              key=lambda poset, values, elements: "whole" if elements is poset.elements
              else "local")
        count("_recheck_near", morse, normalization)
        count("set_value", normalization._Pipeline)
        count("embedding_to_obj", jsonio)

        def value_types(name, module, values):
            """Count calls under (name, the type names of the values read)."""
            original = getattr(module, name)

            def wrapper(*args, _original=original):
                calls[(name, *sorted({type(v).__name__ for v in values(*args).values()}))] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, wrapper)

        value_types("_scan", morse, lambda poset, values, elements: values)
        value_types("classify", normalization, lambda poset, f: f.values)
        value_types("_find_troubled", normalization, lambda poset, values: values)
        value_types("_require_general", chain_index, lambda poset, g: g.values)
        return calls

    @pytest.mark.parametrize("seed", [None, 5])
    def test_each_fact_once(self, files, calls, seed):
        _, write = files
        spec = complex_from_obj(TRIANGLE) if seed is None else gen_complex(seed, 6, 2, 0.5)
        poset = face_poset_simplicial(spec).poset
        argv = ["verify", "--in", write("c.json", complex_to_obj(spec))]
        if seed is not None:
            argv += ["--morse", write("f.json", morse_to_obj(gen_morse(seed, poset)))]
        calls.clear()
        assert main(argv) == 0
        assert calls["_normalize_trace"] == 1
        assert calls["is_two_wide"] == 1
        # classify audits the input and the result, each in one scan; the
        # obstruction audit checks the function after each of the two
        # sweeps without validating it again.
        assert calls["whole"] == 2
        assert calls["classify"] == 2
        assert calls["find_troubled"] == 0
        assert calls["_find_troubled"] == 2
        # The trace's keys are injective, so nothing rescans them.
        assert calls["_require_general"] == 0
        assert calls["check_hypotheses"] == 1
        # The poset is graded once, as it is built; the Eulerian check is
        # the one whole-poset Hall pass, and chi comes from the parity.
        assert calls["_order"] == 1
        assert calls["whole Hall"] == 1
        assert calls["validate_parity_rank"] == 0
        assert calls["require"] == 0
        # Only the input's classification compares rationals: the audits,
        # the final classification and the index compare int order keys.
        assert calls["classify", "Fraction"] == 1
        assert calls["classify", "int"] == 1
        assert calls["_find_troubled", "int"] == 2
        assert calls["_require_general", "int"] == 0
        # Nothing lists chains: the geometric witness counts them grouped
        # by (last vertex, highest vertex), and builds no order complex.
        assert calls["enumerate_chains"] == 0
        assert calls["order_complex"] == 0
        # The witness reads heights; no coordinate is written out.
        assert calls["embedding_to_obj"] == 0
        assert [calls[b] for b in poset.sorted_elements] == [1] * len(poset)

    @pytest.mark.parametrize("spec", [complex_from_obj(TRIANGLE), gen_complex(5, 6, 2, 0.5)],
                             ids=["triangle", "gen_complex5"])
    def test_check_grades_once(self, files, calls, spec):
        _, write = files
        assert main(["check", "--in", write("c.json", complex_to_obj(spec))]) == 0
        assert calls["_order"] == 1
        assert calls["validate_parity_rank"] == 0
        assert calls["require"] == 0

    @pytest.mark.parametrize("obj", [
        EDGE, TRIANGLE, complex_to_obj(cubical_torus(3, 3)),
        complex_to_obj(full_boundaries(cubical_torus(3, 3))),
    ], ids=["poset", "simplicial", "cubical_torus3x3", "cubical_torus3x3_full"])
    def test_one_order_walk_per_input(self, files, calls, obj):
        _, write = files
        assert main(["check", "--in", write("c.json", obj)]) == 0
        assert calls["_order"] == 1

    def test_whole_function_checks_do_not_grow_with_modifications(self, files, calls):
        _, write = files
        checks, modifications = set(), set()
        for spec, seed in ((complex_from_obj(TRIANGLE), None), (gen_complex(5, 6, 2, 0.5), 5),
                           (torus(3), 1), (torus(4), 2)):
            argv = ["verify", "--in", write("c.json", complex_to_obj(spec))]
            if seed is not None:
                poset = face_poset_simplicial(spec).poset
                argv += ["--morse", write("f.json", morse_to_obj(gen_morse(seed, poset)))]
            calls.clear()
            assert main(argv) == 0
            checks.add((calls["whole"], calls["classify"], calls["find_troubled"],
                        calls["_find_troubled"]))
            modifications.add(calls["set_value"])
            assert calls["local"] == calls["set_value"]
        assert sorted(modifications) == [4, 19, 32]
        assert checks == {(2, 2, 0, 2)}

    @pytest.mark.parametrize("spec", [torus(3), torus(4)], ids=["torus3", "torus4"])
    def test_gen_morse_validates_in_full_twice(self, files, calls, spec, monkeypatch):
        _, write = files
        richcmp = Fraction._richcmp  # every <, <=, > and >= with a Fraction operand

        def counted(self, other, op):
            calls["Fraction comparison"] += 1
            return richcmp(self, other, op)

        monkeypatch.setattr(Fraction, "_richcmp", counted)
        argv = ["gen", "--kind", "morse", "--seed", "3",
                "--in", write("c.json", complex_to_obj(spec))]
        assert main(argv) == 0
        # The base function and the result, both scanned on the int
        # twelfths; each perturbation is checked by _holds_near, which
        # neither rechecks nor scans.
        assert calls["whole"] == 2
        assert calls["classify"] == 2
        assert calls["_scan", "int"] == 2
        assert calls["_scan", "Fraction"] == 0
        assert calls["local"] == 0
        assert calls["_recheck_near"] == 0
        # No Fraction is compared anywhere in the run, the scans included.
        assert calls["Fraction comparison"] == 0


class TestNoRationalHashed:
    """No command hashes a Fraction.  Values that share a hash (every
    multiple of 2^61 - 1 hashes to 0) would make a value-keyed set or dict
    quadratic; normalization ranks the values by one sort instead."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        calls = Counter()
        original = Fraction.__hash__

        def counted(self):
            calls["Fraction"] += 1
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        assert hash(Fraction(1, 3)) == original(Fraction(1, 3)) and calls.pop("Fraction") == 1
        return calls

    @pytest.mark.parametrize("seed", [None, 1], ids=["dimension", "gen_morse"])
    @pytest.mark.parametrize("command", ["verify", "normalize", "embed", "index"])
    def test_no_command_hashes_a_rational(self, files, hashes, command, seed):
        _, write = files
        spec = torus(5)
        argv = [command, "--in", write("c.json", complex_to_obj(spec))]
        if seed is not None:
            poset = face_poset_simplicial(spec).poset
            argv += ["--morse", write("f.json", morse_to_obj(gen_morse(seed, poset)))]
        # The up sweep writes Fraction midpoints even for the dimension function.
        assert main(argv) == 0
        assert hashes["Fraction"] == 0

    def test_antichain_of_values_hashing_to_zero_verifies(self, files, hashes, capsys):
        _, write = files
        elements = [f"v{k:04d}" for k in range(2000)]
        values = {e: str(k * (2**61 - 1)) for k, e in enumerate(elements)}
        argv = ["verify", "--in", write("p.json", {"elements": elements, "covers": []}),
                "--morse", write("f.json", {"values": values})]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "verified"
        assert hashes["Fraction"] == 0


class TestPinnedOutput:
    """`gen --kind morse` and `verify` stdout bytes on two seeded inputs."""

    @pytest.mark.parametrize(
        "spec, seed, gen_sha256, verify_sha256",
        [
            (
                torus(3), 1,
                "3a612d830783d414ddcecceb8398d3a22afbab4a3b9e7a0ab85a432555708310",
                "b1563b5f949b481e1bf5f01d39cd75ef371fa2c99b100254fddba09b900f06c3",
            ),
            (
                gen_complex(5, 6, 2, 0.5), 5,
                "bec7c58a3017c67a9a29ef862719005a07a0b0d2f18a0a7503059f56f63fe400",
                "5199870044736135661cf22b72f5c47ab8ea983e5140343b3ff4279ab7a044d5",
            ),
        ],
        ids=["torus3", "gen_complex5"],
    )
    def test_stdout_sha256(self, files, capsys, spec, seed, gen_sha256, verify_sha256):
        tmp_path, write = files
        complex_path = write("c.json", complex_to_obj(spec))
        assert main(["gen", "--kind", "morse", "--seed", str(seed), "--in", complex_path]) == 0
        generated = capsys.readouterr().out
        morse_path = tmp_path / "f.json"
        morse_path.write_text(generated, encoding="utf-8")
        assert main(["verify", "--in", complex_path, "--morse", str(morse_path)]) == 0
        verified = capsys.readouterr().out
        assert hashlib.sha256(generated.encode("utf-8")).hexdigest() == gen_sha256
        assert hashlib.sha256(verified.encode("utf-8")).hexdigest() == verify_sha256

    @pytest.mark.parametrize(
        "doc, seed, json_sha256, text_sha256, csv_sha256",
        [
            (
                complex_to_obj(torus(3)), 1,
                "520c73b7991924336804bad06fa4cd987d10ac2f3eeafe12f29e4f36603161fe",
                "a9c3aeda761519ebf25638ab560cedca9338410a8e409c0bc2ada71dfac83a70",
                "fe82c5d34397b53bf1da65a992baac2534b852270f0963fb684bee6f27ee837a",
            ),
            (
                TRIANGLE, None,
                "db7a90f65353e63bdcce37f7b82eebb9d22177c48e23e07a180abf8071f619d2",
                "381320bcdc4e878fa0cbb91de5682fdda9046942e51c643b0470106836909999",
                "2ed62dea602d7965a88776aeb9f109674f6ff52c2aec10c426fa62e59906698c",
            ),
        ],
        ids=["torus3_gen_morse1", "triangle_dimension"],
    )
    def test_embed_sha256(self, files, capsys, doc, seed, json_sha256, text_sha256, csv_sha256):
        """`embed` JSON and text stdout and the `--csv` file, byte for byte."""
        tmp_path, write = files
        args = ["--in", write("c.json", doc)]
        if seed is not None:
            assert main(["gen", "--kind", "morse", "--seed", str(seed), *args]) == 0
            args += ["--morse", write("f.json", json.loads(capsys.readouterr().out))]
        csv_path = tmp_path / "coords.csv"
        assert main(["embed", *args, "--csv", str(csv_path)]) == 0
        as_json = capsys.readouterr().out
        assert main(["embed", *args, "--format", "text"]) == 0
        as_text = capsys.readouterr().out
        assert hashlib.sha256(as_json.encode("utf-8")).hexdigest() == json_sha256
        assert hashlib.sha256(as_text.encode("utf-8")).hexdigest() == text_sha256
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha256

    def test_embed_csv_formats_each_coordinate_once(self, files, capsys, monkeypatch):
        """Each height is formatted once, and `--csv` writes the strings the
        JSON payload already holds."""
        tmp_path, write = files
        args = ["embed", "--in", write("t.json", TRIANGLE)]
        calls = Counter()
        original = Fraction.__str__

        def counted(value):
            calls["format"] += 1
            return original(value)

        monkeypatch.setattr(Fraction, "__str__", counted)
        counts = []
        for extra in ([], ["--csv", str(tmp_path / "coords.csv")]):
            calls.clear()
            assert main([*args, *extra]) == 0
            counts.append(calls["format"])
        capsys.readouterr()
        assert counts == [7, 7]


class TestCubical:
    """Cellular inputs beyond simplicial ones: d-cubes and cubical tori, with
    the dimension function and a seeded gen_morse function."""

    @pytest.mark.parametrize("seed", [None, 3], ids=["dimension", "gen_morse3"])
    @pytest.mark.parametrize("spec, chi", [c[1:] for c in CUBICAL], ids=[c[0] for c in CUBICAL])
    def test_check_verify_embed(self, files, capsys, spec, chi, seed):
        tmp_path, write = files
        args = ["--in", write("c.json", complex_to_obj(spec))]
        assert main(["check", "--strict", *args]) == 0
        assert json.loads(capsys.readouterr().out)["all_hold"] is True
        if seed is not None:
            assert main(["gen", "--kind", "morse", "--seed", str(seed), *args]) == 0
            args += ["--morse", write("f.json", json.loads(capsys.readouterr().out))]
        assert main(["verify", *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "verified"
        assert payload["totals"]["euler_characteristic"] == chi
        assert sum(entry["computed"] for entry in payload["entries"]) == chi
        assert sum(entry["geometric"] for entry in payload["entries"]) == chi
        assert main(["embed", *args]) == 0
        embedded = json.loads(capsys.readouterr().out)
        n_cells = len(spec.cells)
        assert embedded["dimension"] == n_cells
        assert len(embedded["coordinates"]) == n_cells


CONE = cubical_cone(3, 3)
CONE_FACE = face_poset_cellular(CONE)


class TestCone:
    """The paper's broader class: the cone over the cubical 3-torus is
    downward Eulerian without being the face poset of a CW complex."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(1, 20))
    def test_verify_and_witness(self, seed):
        poset = CONE_FACE.poset
        g = gen_morse(seed, poset)
        with tempfile.TemporaryDirectory() as tmp:
            path, morse_path = Path(tmp, "cone.json"), Path(tmp, "f.json")
            path.write_text(json.dumps(complex_to_obj(CONE)), encoding="utf-8")
            morse_path.write_text(json.dumps(morse_to_obj(g)), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["verify", "--in", str(path), "--morse", str(morse_path)]) == 0
        assert json.loads(out.getvalue())["status"] == "verified"
        embedding = geometry.embed_vertices(poset, normalization.normalize(poset, g))
        assert geometry.lower_star_indices(poset, embedding) == oracles.geometric_indices(
            oracles.realize_complex(poset, embedding))


class TestCheck:
    def test_triangle_all_hold(self, files, capsys):
        _, write = files
        assert main(["check", "--in", write("t.json", TRIANGLE)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_hold"] is True
        assert payload["two_wide"]["holds"] is True
        assert payload["parity_rank"]["exists"] is True
        assert payload["downward_eulerian"]["holds"] is True

    def test_chain_reports_witness(self, files, capsys):
        _, write = files
        assert main(["check", "--in", write("c.json", CHAIN)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["two_wide"] == {"holds": False, "witness": ["0", "1", "2"]}

    def test_strict_failure_exits_1(self, files):
        _, write = files
        assert main(["check", "--strict", "--in", write("c.json", CHAIN)]) == 1

    def test_parity_conflict_reported(self, files, capsys):
        _, write = files
        poset = {
            "elements": ["a", "b", "c", "d"],
            "covers": [["a", "c"], ["b", "d"], ["d", "c"]],
        }
        assert main(["check", "--in", write("p.json", poset)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parity_rank"]["exists"] is False
        assert payload["parity_rank"]["conflict"]["element"] == "c"

    def test_text_format(self, files, capsys):
        _, write = files
        assert main(["check", "--in", write("t.json", TRIANGLE), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "2-wide: True" in out

    def test_long_chain_answers_quickly(self, files, capsys):
        # 2^400 - 1 chains: a downward-Eulerian check that enumerated them
        # would never finish.  Every strict down-set is a chain, with chi 1.
        _, write = files
        names = [f"c{i:03d}" for i in range(400)]
        path = write("long.json", {"elements": names,
                                   "covers": [list(p) for p in zip(names, names[1:])]})
        start = time.perf_counter()
        assert main(["check", "--in", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["check", "--strict", "--in", path]) == 1
        assert time.perf_counter() - start < 20
        eulerian = payload["downward_eulerian"]
        assert eulerian["holds"] is False
        assert len(eulerian["violations"]) == 399
        assert eulerian["violations"][0] == {"element": "c001", "chi": 1, "required": 2}
        assert eulerian["violations"][1] == {"element": "c002", "chi": 1, "required": 0}


class TestOtherCommands:
    def test_euler(self, files, capsys):
        _, write = files
        assert main(["euler", "--in", write("t.json", TRIANGLE)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["euler_characteristic"] == 1
        assert payload["simplices_by_dimension"] == [7, 12, 6]

    def test_euler_counts_a_long_chain_without_listing_it(self, files, capsys):
        # 2^40 - 1 chains: listing them would exhaust memory.
        _, write = files
        names = [f"c{i:02d}" for i in range(40)]
        path = write("long.json", {"elements": names,
                                   "covers": [list(p) for p in zip(names, names[1:])]})
        start = time.perf_counter()
        assert main(["euler", "--in", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["euler", "--in", path, "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert time.perf_counter() - start < 10
        counts = [math.comb(40, k + 1) for k in range(40)]
        assert payload == {"element_count": 40, "simplex_count": 2**40 - 1,
                           "simplices_by_dimension": counts, "euler_characteristic": 1}
        assert text == (f"order complex: {2**40 - 1} simplices over 40 vertices "
                        f"(by dimension: {tuple(counts)})\nEuler characteristic: 1\n")

    def test_euler_on_the_empty_poset(self, files, capsys):
        _, write = files
        path = write("empty.json", {"elements": [], "covers": []})
        assert main(["euler", "--in", path, "--format", "text"]) == 0
        assert capsys.readouterr().out == (
            "order complex: 0 simplices over 0 vertices (by dimension: ())\n"
            "Euler characteristic: 0\n"
        )

    def test_classify(self, files, capsys):
        _, write = files
        code = main(
            ["classify", "--in", write("e.json", EDGE), "--morse", write("f.json", EDGE_MORSE)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"] == {"a": "critical", "b": "ordinary", "e": "ordinary"}
        assert payload["witnesses"]["e"] == {"neighbor": "b", "direction": "below"}

    def test_normalize_emits_contract_format(self, files, capsys):
        _, write = files
        morse = {"values": {"a": "0", "b": "1", "e": "1"}}
        code = main(
            ["normalize", "--in", write("e.json", EDGE), "--morse", write("f.json", morse)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        values = payload["values"]
        assert set(values) == {"a", "b", "e"}
        assert len(set(values.values())) == 3

    def test_index(self, files, capsys):
        _, write = files
        assert main(["index", "--in", write("t.json", TRIANGLE)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["sum"] == 1
        assert len(payload["entries"]) == 7

    def test_embed_with_csv(self, files, capsys):
        tmp_path, write = files
        csv_path = tmp_path / "coords.csv"
        code = main(
            [
                "embed",
                "--in", write("e.json", EDGE),
                "--morse", write("f.json", EDGE_MORSE),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dimension"] == 3
        assert payload["coordinates"]["a"] == ["0", "1", "0"]
        header, *rows = csv_path.read_text().strip().splitlines()
        assert header == "element,coord_1,coord_2,coord_3"
        assert len(rows) == 3

    def test_gen_complex_roundtrip(self, files, capsys):
        tmp_path, write = files
        out = tmp_path / "c.json"
        assert main(["gen", "--kind", "complex", "--seed", "9", "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out)]) == 0
        capsys.readouterr()

    def test_gen_morse_roundtrip(self, files, capsys):
        tmp_path, write = files
        poset = write("t.json", TRIANGLE)
        morse_out = tmp_path / "m.json"
        assert main(["gen", "--kind", "morse", "--seed", "4", "--in", poset,
                     "--out", str(morse_out)]) == 0
        assert main(["verify", "--in", poset, "--morse", str(morse_out)]) == 0
        capsys.readouterr()

    def test_gen_byte_determinism(self, files):
        tmp_path, _ = files
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["gen", "--kind", "complex", "--seed", "3", "--vertices", "6",
                         "--dim", "2", "--density", "0.4", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestThinAdapter:
    """CLI reports must equal what the library computes on the same inputs."""

    def test_verify_matches_library(self, files, capsys, tmp_path):
        from morsepoly import (
            cross_check,
            face_poset_simplicial,
            gen_complex,
            gen_morse,
            normalize,
            verify_representation,
        )
        from morsepoly.jsonio import complex_to_obj, dumps_canonical, morse_to_obj

        spec = gen_complex(21, 6, 2, 0.5)
        face = face_poset_simplicial(spec)
        f = gen_morse(22, face.poset)

        complex_path = tmp_path / "c.json"
        complex_path.write_text(dumps_canonical(complex_to_obj(spec)), encoding="utf-8")
        morse_path = tmp_path / "f.json"
        morse_path.write_text(dumps_canonical(morse_to_obj(f)), encoding="utf-8")

        assert main(["verify", "--in", str(complex_path), "--morse", str(morse_path)]) == 0
        payload = json.loads(capsys.readouterr().out)

        report = verify_representation(face.poset, f)
        geo = cross_check(face.poset, normalize(face.poset, f))
        assert payload["totals"]["sum"] == report.total
        assert payload["totals"]["euler_characteristic"] == report.chi
        assert payload["totals"]["n_even_critical"] == report.n_even
        assert payload["totals"]["n_odd_critical"] == report.n_odd
        by_element = {e["element"]: e for e in payload["entries"]}
        for entry in report.entries:
            assert by_element[entry.element]["computed"] == entry.computed
            assert by_element[entry.element]["predicted"] == entry.predicted
            assert by_element[entry.element]["critical"] == entry.critical
            assert by_element[entry.element]["geometric"] == geo.indices[entry.element]


class TestBadInput:
    def test_unreadable_file(self, capsys):
        assert main(["check", "--in", "/nonexistent/nope.json"]) == 2

    def test_garbage_json(self, files, capsys):
        tmp_path, _ = files
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["check", "--in", str(bad)]) == 2

    def test_unrecognized_document(self, files):
        _, write = files
        assert main(["check", "--in", write("x.json", {"hello": 1})]) == 2

    def test_duplicate_key_rejected(self, files, capsys):
        tmp_path, write = files
        morse_path = tmp_path / "f.json"
        morse_path.write_text(
            '{"values": {"a": "9", "a": "0", "b": "2", "e": "1"}}', encoding="utf-8"
        )
        code = main(["verify", "--in", write("e.json", EDGE), "--morse", str(morse_path)])
        assert code == 2
        assert "duplicate object key 'a'" in capsys.readouterr().err

    def test_float_rational_rejected(self, files):
        _, write = files
        morse = {"values": {"a": 0.5, "b": "2", "e": "1"}}
        code = main(
            ["classify", "--in", write("e.json", EDGE), "--morse", write("f.json", morse)]
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["\u0663", "1/1\u0660"])
    def test_non_ascii_digits_rejected(self, files, capsys, value):
        _, write = files
        morse = {"values": {"a": value, "b": "2", "e": "7"}}
        code = main(
            ["classify", "--in", write("e.json", EDGE), "--morse", write("f.json", morse)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: expected a rational as 'p' or 'p/q', got {value!r}\n"
        )

    def test_rational_past_the_digit_limit(self, files, capsys, digit_limit):
        """A value with more digits than the interpreter reads: one error
        line naming the limit, without Python's own hint."""
        _, write = files
        morse = {"values": {"a": "1/" + "3" * 5000, "b": "2", "e": "7"}}
        code = main(
            ["classify", "--in", write("e.json", EDGE), "--morse", write("f.json", morse)]
        )
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: expected a rational whose parts have at most {digit_limit} digits\n")

    @pytest.mark.parametrize("flags", [
        ["normalize"], ["normalize", "--format", "text"], ["embed"], ["embed", "--csv", "c.csv"],
    ], ids=" ".join)
    def test_value_too_long_to_write(self, files, capsys, digit_limit, flags):
        """The spread sweep writes a midpoint whose denominator has about
        8,000 digits: one error line naming its element, and nothing written."""
        tmp_path, write = files
        antichain = {"elements": ["a", "b", "c"], "covers": []}
        near = "1/1" + "0" * 3999 + "1"  # 1/(10^4000 + 1)
        morse = {"values": {"a": near, "b": near, "c": "1/" + "9" * 3999 + "7"}}
        argv = ["--in", write("p.json", antichain), "--morse", write("f.json", morse)]
        assert main(["verify", *argv]) == 0
        capsys.readouterr()
        code = main([flags[0], *argv, *(str(tmp_path / f) if f.endswith(".csv") else f
                                        for f in flags[1:])])
        assert code == 2
        assert capsys.readouterr() == ("", (
            f"error: cannot write the value of 'a': a part has more than {digit_limit} "
            f"digits\n"))
        assert not (tmp_path / "c.csv").exists()

    def test_invalid_morse_function(self, files):
        _, write = files
        morse = {"values": {"a": "0", "b": "0", "e": "0"}}
        code = main(
            ["classify", "--in", write("e.json", EDGE), "--morse", write("f.json", morse)]
        )
        assert code == 2

    def test_duplicate_element_id(self, files, capsys):
        _, write = files
        poset = {"elements": ["a", "a"], "covers": []}
        assert main(["check", "--in", write("p.json", poset)]) == 2
        err = capsys.readouterr().err
        assert err == "error: duplicate element id 'a'\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--vertices", "0"], "n_vertices must be at least 1"),
            (["--dim", "-1"], "dimension must be non-negative"),
            (["--density", "1.5"], "density must lie in [0, 1]"),
            # C(2000, 3) is about 1.3e9 candidates.
            (["--vertices", "2000", "--dim", "2", "--density", "0.5"],
             "density 0.5 of C(2000, 3) candidate simplices asks for more than "
             "1048576 draws"),
            # argparse alone would read these as option flags.
            (["--density", "-1e-9"], "density must lie in [0, 1]"),
            (["--density", "-inf"], "density must lie in [0, 1]"),
            (["--density=-1e-9"], "density must lie in [0, 1]"),
            # One singleton simplex per uncovered vertex: refused before any is listed.
            (["--vertices", "100000000", "--dim", "1", "--density", "1e-9"],
             "n_vertices must be at most 1048576"),
            # A drawn simplex past MAX_SIMPLEX_VERTICES would load nowhere.
            (["--seed", "6", "--vertices", "20", "--dim", "19", "--density", "1e-6"],
             "a drawn simplex may have 20 vertices; at most 15 are supported"),
        ],
    )
    def test_gen_complex_arguments(self, capsys, flags, message):
        assert main(["gen", "--kind", "complex", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("document, message", [
        ({"elements": ["a"], "covers": [["a"]]}, "cover entry ['a'] is not a pair of strings"),
        ({"kind": "simplicial", "maximal_simplices": [["1", 2]]},
         "simplex ['1', 2] is not a list of vertex ids"),
        ({"kind": "cellular", "cells": [{"id": 1, "dim": 0}]}, "cell id 1 is not a string"),
        ({"kind": "cellular", "cells": [{"id": "a", "dim": "0"}]},
         "cell 'a' dimension must be an integer"),
        ({"kind": "cellular", "cells": [{"id": "a", "dim": 1, "boundary": "b"}]},
         "cell 'a' boundary must be a list of cell ids"),
    ], ids=["cover", "simplex", "cell-id", "cell-dim", "cell-boundary"])
    def test_malformed_entry(self, files, capsys, document, message):
        _, write = files
        assert main(["check", "--in", write("d.json", document)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("load, document, message", [
        # detect_kind refuses a non-object before poset_from_obj sees it.
        (poset_from_obj, [], "poset document must be an object"),
        # JSON object keys are always strings.
        (morse_from_obj, {"values": {1: "0"}}, "element id 1 is not a string"),
        # load_input sends a poset document to poset_from_obj.
        (complex_from_obj, {"elements": [], "covers": []},
         "document of kind 'poset' is not a complex"),
    ], ids=["poset-not-object", "int-element-id", "poset-as-complex"])
    def test_malformed_document_the_cli_cannot_send(self, load, document, message):
        with pytest.raises(MalformedSpec) as info:
            load(document)
        assert str(info.value) == message

    def test_simplex_past_the_vertex_limit(self, files, capsys, monkeypatch):
        """A 16-vertex simplex is refused before any of its 65,535 faces is built."""
        _, write = files
        monkeypatch.setattr(complexes, "combinations", None)
        simplex = {"kind": "simplicial", "maximal_simplices": [[str(i) for i in range(16)]]}
        assert main(["check", "--in", write("s.json", simplex)]) == 2
        assert capsys.readouterr().err == (
            "error: a maximal simplex has 16 vertices; at most 15 are supported\n"
        )

    def test_non_utf8_file(self, files, capsys):
        """The error names the file that is not UTF-8, input or function."""
        tmp_path, write = files
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"elements": ["\xe9"], "covers": []}')
        point = write("point.json", {"elements": ["a"], "covers": []})
        for argv in (["check", "--in", str(bad)], ["classify", "--in", point, "--morse", str(bad)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad} is not UTF-8: 'utf-8' codec can't decode")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "bad.json is not valid JSON: "),
        # Valid JSON whose integer the interpreter will not convert: a typed
        # message that names the limit, without Python's hint.
        ('{"elements": [' + "1" * 5000 + "]}",
         f"bad.json has an integer of more than {sys.get_int_max_str_digits()} digits\n"),
    ], ids=["deep", "digits"])
    def test_json_the_decoder_refuses(self, files, capsys, text, message):
        tmp_path, _ = files
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert main(["check", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "set_int_max_str_digits" not in err

    def test_internal_value_error_is_not_bad_input(self, files, monkeypatch):
        # Only MorsePolyError means bad input; any other error is a bug and
        # must surface as one.
        _, write = files

        def broken(poset):
            raise ValueError("internal")

        monkeypatch.setattr(check_command, "is_two_wide", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["check", "--in", write("t.json", TRIANGLE)])

    @pytest.mark.parametrize("command, flag", [("verify", "--out"), ("embed", "--csv")])
    def test_unwritable_output_path(self, files, capsys, command, flag):
        tmp_path, write = files
        target = tmp_path / "missing" / "o.out"
        assert main([command, "--in", write("t.json", TRIANGLE), flag, str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")

    def test_transitive_cover_rejected(self, files):
        _, write = files
        poset = {"elements": ["a", "e", "t"], "covers": [["a", "e"], ["e", "t"], ["a", "t"]]}
        assert main(["check", "--in", write("p.json", poset)]) == 2

    @pytest.mark.parametrize("poset, message", [
        ({"elements": ["a", "b", "c"], "covers": [["a", "a"], ["b", "b"], ["c", "c"]]},
         "self-loop at 'a'"),
        ({"elements": ["a"], "covers": [["a", "x"], ["a", "y"], ["a", "z"], ["a", "w"]]},
         "unknown element 'w' in pair ('a', 'w')"),
    ], ids=["self-loops", "unknown-ends"])
    def test_error_names_the_first_bad_pair_under_every_hash_seed(self, files, poset, message):
        # The pairs are checked in identifier order, not in set order.
        _, write = files
        path = write("p.json", poset)
        seen = set()
        for seed in range(8):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": str(seed)}
            done = subprocess.run([sys.executable, "-m", "morsepoly.cli", "check", "--in", path],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == 2
            seen.add(done.stderr)
        assert seen == {f"error: {message}\n"}


def _poset_documents(poset, rng):
    """The poset as an elements/covers document twice: in identifier order
    and with both lists shuffled."""
    elements = sorted(poset.elements)
    covers = [list(pair) for pair in sorted(poset.covers)]
    ordered = {"elements": elements, "covers": covers}
    elements, covers = elements[:], covers[:]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return ordered, {"elements": elements, "covers": covers}


class TestInputOrder:
    """The order of an input's lists never reaches the output."""

    @pytest.mark.parametrize("face", [
        face_poset_simplicial(torus(3)),
        face_poset_cellular(build_two_cycles_spec()),
    ], ids=["torus3", "two-cycles"])
    def test_shuffled_document_gives_the_same_bytes(self, files, capsys, face):
        _, write = files
        ordered, shuffled = _poset_documents(face.poset, random.Random(17))
        morse = write("f.json", morse_to_obj(gen_morse(5, face.poset)))
        runs = {}
        for name, document in (("ordered", ordered), ("shuffled", shuffled)):
            path = write(f"{name}.json", document)
            for argv in (["check"], ["euler"], ["classify", "--morse", morse],
                         ["normalize", "--morse", morse], ["index", "--morse", morse],
                         ["verify", "--morse", morse], ["embed", "--morse", morse],
                         ["gen", "--kind", "morse", "--seed", "3"]):
                code = main([*argv, "--in", path])
                runs.setdefault(argv[0], []).append((code, capsys.readouterr().out))
        for command, (first, second) in runs.items():
            assert first == second, command
        assert runs["verify"][0][0] == 0


NAMES = ("a", "b", "c", "d", "e")
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
RATIONALS = (
    st.integers(-4, 4)
    | st.integers(-4, 4).map(str)
    | st.fractions(-4, 4, max_denominator=4).map(str)
    | st.sampled_from(["1/0", "0.5", "+1", "", " 2 ", "1/2/3", "1/-2"])
    | st.floats()
    | st.booleans()
    | st.none()
)


@st.composite
def input_documents(draw):
    """A small poset or complex document, often well formed, sometimes with
    a key dropped or replaced by junk, or with one cover, simplex, cell or
    cell field replaced by junk; or junk outright.  The cellular ones
    include d-cubes and cubical tori, regular CW complexes that are not
    simplicial, products of two small generated complexes, and the cone over
    the cubical 3-torus, with and without full boundaries, which is not a CW
    complex at all."""
    kind = draw(st.sampled_from(("poset", "simplicial", "cellular", "cubical", "junk")))
    if kind == "junk":
        return draw(JUNK)
    unique = draw(st.integers(0, 3)) > 0
    if kind == "poset":
        elements = draw(st.lists(st.sampled_from(NAMES), max_size=5, unique=unique))
        pair = st.lists(st.sampled_from(NAMES), min_size=2, max_size=2)
        if len(elements) > 1 and unique:
            # Oriented by list position, so mostly acyclic.
            pair = st.lists(st.sampled_from(range(len(elements))), min_size=2, max_size=2,
                            unique=True).map(lambda ij: [elements[min(ij)], elements[max(ij)]])
        doc = {"elements": elements, "covers": draw(st.lists(pair, max_size=6))}
    elif kind == "cubical":
        doc = complex_to_obj(draw(
            st.builds(cube, st.integers(0, 3))
            | st.builds(cubical_torus, st.sampled_from((3, 4)), st.sampled_from((3, 4)))
            | st.builds(product, SMALL_FACES, SMALL_FACES)
            | st.sampled_from((CONE, full_boundaries(CONE)))
        ))
    elif kind == "simplicial":
        simplex = st.lists(st.sampled_from("1234"), max_size=4, unique=unique)
        doc = {"kind": kind, "maximal_simplices": draw(st.lists(simplex, max_size=4))}
    else:
        cell = st.fixed_dictionaries(
            {"id": st.sampled_from(NAMES), "dim": st.integers(-1, 2)},
            optional={"boundary": st.lists(st.sampled_from(NAMES), max_size=3)},
        )
        doc = {"kind": kind, "cells": draw(st.lists(cell, max_size=5))}
    key = draw(st.sampled_from(sorted(doc)))
    fault = draw(st.sampled_from(("none", "none", "none", "drop", "junk", "entry")))
    entries = doc.get("covers") or doc.get("maximal_simplices") or doc.get("cells")
    if fault == "drop":
        del doc[key]
    elif fault == "junk":
        doc[key] = draw(JUNK)
    elif fault == "entry" and entries:
        # One entry, or one field of a cell, replaced by junk.
        i = draw(st.integers(0, len(entries) - 1))
        if isinstance(entries[i], dict) and draw(st.booleans()):
            entries[i][draw(st.sampled_from(("id", "dim", "boundary")))] = draw(JUNK)
        else:
            entries[i] = draw(JUNK)
    return doc


def function_document(data, path):
    """A function on the input's elements: a gen_morse one with ties,
    dropped or extra keys and bad values mixed in; junk when the input does
    not load."""
    try:
        _, poset = commands.load_input(path)
    except MorsePolyError:
        poset = None
    if poset is None or len(poset) == 0 or data.draw(st.integers(0, 4)) == 0:
        values = st.dictionaries(st.sampled_from(NAMES), RATIONALS, max_size=5)
        return data.draw(st.fixed_dictionaries({"values": values}) | JUNK)
    seed = data.draw(st.integers(0, 99))
    base = {e: str(v) for e, v in gen_morse(seed, poset).values.items()}
    values = dict(base)
    elements = st.sampled_from(poset.sorted_elements)
    for _ in range(data.draw(st.integers(0, 2))):
        fault = data.draw(st.sampled_from(("tie", "drop", "extra", "value")))
        e = data.draw(elements)
        if fault == "tie":
            values[e] = base[data.draw(elements)]
        elif fault == "drop":
            values.pop(e, None)
        elif fault == "extra":
            values["zz"] = data.draw(RATIONALS)
        else:
            values[e] = data.draw(RATIONALS)
    return {"values": values}


class TestNeverRaises:
    """Every command exits 0, 1 or 2 on any input, never with a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_codes(self, data):
        command = data.draw(st.sampled_from(COMMANDS))
        seed = data.draw(st.integers(0, 99))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "in.json")
            path.write_text(json.dumps(data.draw(input_documents())), encoding="utf-8")
            argv = [command, "--in", str(path)]
            if command == "gen" and data.draw(st.booleans()):
                argv += ["--kind", "morse", "--seed", str(seed)]
            elif command == "gen":
                vertices = data.draw(st.integers(-1, 40) | st.just(2000))
                dimension = data.draw(st.integers(-1, 1200))
                density = data.draw(
                    st.floats(-0.5, 1.5) | st.sampled_from([math.nan, math.inf, 5e-324])
                )
                numbers = {"--seed": seed, "--vertices": vertices, "--dim": dimension,
                           "--density": repr(density)}
                # "--flag=value" or "--flag value": either form must carry a
                # value such as "-1e-09" to its validator.
                glued = data.draw(st.booleans())
                argv = ["gen", "--kind", "complex"]
                for flag, value in numbers.items():
                    argv += [f"{flag}={value}"] if glued else [flag, str(value)]
            elif command not in ("check", "euler") and data.draw(st.booleans()):
                morse_path = Path(tmp, "f.json")
                morse_path.write_text(json.dumps(function_document(data, str(path))),
                                      encoding="utf-8")
                argv += ["--morse", str(morse_path)]
            if data.draw(st.booleans()):
                argv += ["--format", "text"]
            # A lower ceiling keeps every accepted draw count small; the
            # check it bounds is the same.
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    mock.patch.object(generators, "MAX_DRAWS", 4096):
                code = main(argv)
        assert code in (0, 1, 2)


# The parsers' vocabulary: every command name and two that are not; every
# flag of the option table, a unique prefix (--form), one that is ambiguous
# in `gen` (--d), help, the end-of-options marker and an unknown flag; and
# values that are valid for some option and invalid for others.
WORDS = [*OPTIONS, "", "verfy"]
FLAGS = sorted({flag for _, options in OPTIONS.values() for flag, _ in options})
OTHER_FLAGS = ["--form", "--d", "--str", "-h", "--help", "--", "--bogus"]
VALUES = ["in.json", "", "json", "text", "xml", "morse", "complex", "7", " 5", "5_0",
          "-3", "-1e-9", "nan", "inf", "x"]


@st.composite
def argvs(draw):
    """A command word, often `--in PATH`, then flags with values given
    separately, glued as --flag=value, missing, or stray."""
    command = draw(st.sampled_from(WORDS))
    argv = [command]
    if draw(st.booleans()):
        argv += ["--in", "in.json"]
    own = dict(OPTIONS.get(command, ("", ()))[1])
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(sorted(own) or FLAGS) | st.sampled_from(FLAGS + OTHER_FLAGS))
        value = draw(st.sampled_from(VALUES) | st.sampled_from(fitting(own.get(flag, {}))))
        shape = draw(st.sampled_from(("separate", "separate", "glued", "bare", "stray")))
        if shape == "separate":
            argv += [flag, value]
        elif shape == "glued":
            argv.append(f"{flag}={value}")
        elif shape == "bare":
            argv.append(flag)
        else:
            argv.append(value)
    return argv


def fitting(spec):
    """The values of the vocabulary that an option with this spec accepts."""
    if "choices" in spec:
        return list(spec["choices"])
    fits = ["in.json", ""]
    if "type" in spec:
        fits = []
        for value in VALUES:
            with contextlib.suppress(ValueError):
                spec["type"](value)
                fits.append(value)
    return fits


def argparse_values(argv):
    """argparse's namespace for argv as a dict of reprs (so that a nan
    equals a nan), or None when argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            return None
    return {key: repr(value) for key, value in vars(args).items()}


def fast_values(argv):
    args = parse_fast(argv)
    return None if args is None else {key: repr(value) for key, value in vars(args).items()}


def readme_argvs():
    """Every `morsepoly ...` command line of the README, optional parts included."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^(?:\$ )?morsepoly (.*)$", text, flags=re.MULTILINE)
    assert len(lines) >= 10
    return [line.replace("[", "").replace("]", "").split() for line in lines]


class TestParsers:
    """The fast parser accepts only what argparse accepts, with the same values."""

    @settings(max_examples=400, deadline=None)
    @given(argv=argvs())
    def test_fast_parser_agrees_with_argparse(self, argv):
        joined = _join_gen_numbers(argv)
        fast = fast_values(joined)
        if fast is not None:
            assert argparse_values(joined) == fast

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["verify", "--in", "x", "--format", "xml"],
            ["gen", "--seed", "x"],
            ["verify", "--in", "x", "--form", "text"],
            ["gen", "--d", "3"],
            ["check", "--in", "x", "--strict=1"],
            ["verify", "--in", "x", "--", "y"],
            ["verify", "--in", "-x"],
            ["verify", "--in"],
            ["verify", "--in", "x", "stray"],
            ["-h"],
            ["verify", "--help"],
            [],
        ],
    )
    def test_declines_what_only_argparse_answers(self, argv):
        assert parse_fast(argv) is None

    def test_every_documented_and_benchmarked_argv_takes_the_fast_path(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        workloads = importlib.import_module("workloads")
        complex_path, morse_path = Path("c.json"), Path("f.json")
        requests = [
            workloads.Request("v", "verify", complex_path, (), 0),
            workloads.Request("m", "verify", complex_path, (), 0, morse_path=morse_path),
            workloads.Request("g", "gen", complex_path, (), 0, gen_seed=3000),
        ]
        argvs = readme_argvs() + [request.argv() for request in requests]
        for argv in argvs:
            joined = _join_gen_numbers(argv)
            assert fast_values(joined) is not None, argv
            assert fast_values(joined) == argparse_values(joined), argv
