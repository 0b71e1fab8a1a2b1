"""CLI behavior: exit codes, formats, and byte-level determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsepoly import chain_index, cli, complexes, generators, geometry, morse
from morsepoly import poset as poset_module
from morsepoly.cli import main
from morsepoly.complexes import face_poset_simplicial
from morsepoly.errors import MorsePolyError
from morsepoly.generators import gen_complex, gen_morse
from morsepoly.jsonio import complex_from_obj, complex_to_obj, morse_to_obj
from morsepoly.poset import chain_counts
from tests.conftest import CUBICAL, torus

TRIANGLE = {"kind": "simplicial", "maximal_simplices": [["1", "2", "3"]]}
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

        # cmd_verify imports the witness from geometry when it runs.
        monkeypatch.setattr(geometry, "lower_star_indices", skewed)
        assert main(["verify", "--in", write("t.json", TRIANGLE)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "mismatch"
        assert payload["mismatches"] == [{"element": "1", "geometric": 2, "combinatorial": 1}]


class _CountingUpSets(dict):
    """The witness's up-set table; each lookup extends one chain, so the
    lookups count the chains the stream reaches into ``self.visits``."""

    def __getitem__(self, element):
        self.visits["stream"] += 1
        return dict.__getitem__(self, element)


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

        count("_normalize_trace", morse, chain_index)
        count("is_two_wide", morse, poset_module)
        count("find_troubled", morse)
        count("_find_troubled", morse)
        count("_require_general", chain_index)
        count("_index_at", chain_index, key=lambda poset, g, b: b)
        count("check_hypotheses", chain_index, complexes)
        # The chain walk behind enumerate_chains and order_complex, the
        # Chain records enumerate_chains wraps its tuples in, and the order
        # complex the oracles build.
        count("_chain_members", poset_module)
        count("Chain", poset_module)
        count("order_complex", poset_module, geometry)
        # Whole-function checks: every one is a scan of all elements; a
        # scan of a changed element and its covers is a local recheck.
        count("validate_morse", morse, generators)
        count("classify", morse, complexes)
        count("_scan", morse,
              key=lambda poset, values, elements: "whole" if elements is poset.elements
              else "local")
        count("set_value", morse._Pipeline)
        count("vectors", geometry.Embedding)

        def value_types(name, module, values):
            """Count calls under (name, the type names of the values read)."""
            original = getattr(module, name)

            def wrapper(*args, _original=original):
                calls[(name, *sorted({type(v).__name__ for v in values(*args).values()}))] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, wrapper)

        value_types("classify", morse, lambda poset, f: f.values)
        value_types("_find_troubled", morse, lambda poset, values: values)
        value_types("_require_general", chain_index, lambda poset, g: g.values)

        general_up_sets = geometry._general_up_sets

        def counted_up_sets(poset, level):
            up = _CountingUpSets(general_up_sets(poset, level))
            up.visits = calls
            return up

        monkeypatch.setattr(geometry, "_general_up_sets", counted_up_sets)
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
        assert calls["validate_morse"] == 0
        assert calls["find_troubled"] == 0
        assert calls["_find_troubled"] == 2
        assert calls["_require_general"] == 1
        assert calls["check_hypotheses"] == 1
        # Only the input's classification compares rationals: the audits,
        # the final classification and the index compare int order keys.
        assert calls["classify", "Fraction"] == 1
        assert calls["classify", "int"] == 1
        assert calls["_find_troubled", "int"] == 2
        assert calls["_require_general", "int"] == 1
        # Nothing lists chains: the geometric witness streams them, one
        # step per chain, and builds no order complex.
        assert calls["_chain_members"] == 0
        assert calls["Chain"] == 0
        assert calls["order_complex"] == 0
        # The witness reads heights; no coordinate vector is written out.
        assert calls["vectors"] == 0
        assert [calls[b] for b in poset.sorted_elements] == [1] * len(poset)
        assert calls["stream"] == sum(chain_counts(poset))

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
            checks.add((calls["whole"], calls["validate_morse"], calls["find_troubled"],
                        calls["_find_troubled"]))
            modifications.add(calls["set_value"])
            assert calls["local"] == calls["set_value"]
        assert sorted(modifications) == [4, 19, 32]
        assert checks == {(2, 0, 0, 2)}

    @pytest.mark.parametrize("spec", [torus(3), torus(4)], ids=["torus3", "torus4"])
    def test_gen_morse_validates_in_full_twice(self, files, calls, spec):
        _, write = files
        argv = ["gen", "--kind", "morse", "--seed", "3",
                "--in", write("c.json", complex_to_obj(spec))]
        assert main(argv) == 0
        # The base function and the result; perturbations are checked locally.
        assert calls["whole"] == 2
        assert calls["validate_morse"] == 2


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
            # C(2000, 1001) has about 600 digits, past the float range.
            (["--vertices", "2000", "--dim", "1000", "--density", "0.5"],
             "density 0.5 of C(2000, 1001) candidate simplices asks for more than "
             "1048576 draws"),
            # argparse alone would read these as option flags.
            (["--density", "-1e-9"], "density must lie in [0, 1]"),
            (["--density", "-inf"], "density must lie in [0, 1]"),
            (["--density=-1e-9"], "density must lie in [0, 1]"),
            # One singleton simplex per uncovered vertex: refused before any is listed.
            (["--vertices", "100000000", "--dim", "1", "--density", "1e-9"],
             "n_vertices must be at most 1048576"),
        ],
    )
    def test_gen_complex_arguments(self, capsys, flags, message):
        assert main(["gen", "--kind", "complex", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_utf8_file(self, files, capsys):
        tmp_path, _ = files
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"elements": ["\xe9"], "covers": []}')
        assert main(["check", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, '{"elements": [' + "1" * 5000 + "]}"], ids=["deep", "digits"]
    )
    def test_json_the_decoder_refuses(self, files, capsys, text):
        tmp_path, _ = files
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert main(["check", "--in", str(bad)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_internal_value_error_is_not_bad_input(self, files, monkeypatch):
        # Only MorsePolyError means bad input; any other error is a bug and
        # must surface as one.
        _, write = files

        def broken(poset):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "is_two_wide", broken)
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
    a key dropped or replaced by junk; or junk outright."""
    kind = draw(st.sampled_from(("poset", "simplicial", "cellular", "junk")))
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
    fault = draw(st.sampled_from(("none", "none", "none", "drop", "junk")))
    if fault == "drop":
        del doc[key]
    elif fault == "junk":
        doc[key] = draw(JUNK)
    return doc


def function_document(data, path):
    """A function on the input's elements: a gen_morse one with ties,
    dropped or extra keys and bad values mixed in; junk when the input does
    not load."""
    try:
        poset = cli._load_input(path).poset
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
        command = data.draw(st.sampled_from(sorted(cli._COMMANDS)))
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
