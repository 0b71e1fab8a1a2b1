"""Validation, classification, obstruction detection, and normalization."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from morsepoly import morse, normalization
from morsepoly import (
    HypothesisViolated,
    InvalidArgument,
    InvalidMorseFunction,
    MalformedSpec,
    MissingValue,
    Modification,
    MorseFunction,
    MorsePolyError,
    TroubleFlags,
    UnknownElement,
    build_poset,
    check_exclusivity,
    classify,
    combinatorial_index,
    dimension_morse,
    find_troubled,
    gen_complex,
    gen_morse,
    face_poset_cellular,
    face_poset_simplicial,
    is_two_wide,
    linear_extension,
    monotone_extension_holds,
    normalize,
    normalize_trace,
    transitive_reduction,
)
from morsepoly.jsonio import morse_from_obj, morse_to_obj
from tests.conftest import cube, cubical_torus, morse_offence


@pytest.fixture
def trouble_poset():
    """a under x and x2, both under y; values make a short-up obstructed."""
    poset = build_poset(
        ["a", "x", "x2", "y"],
        [("a", "x"), ("a", "x2"), ("x", "y"), ("x2", "y")],
    )
    f = MorseFunction.from_values({"a": 5, "x": 1, "y": 2, "x2": 6})
    return poset, f


class TestFromValues:
    @pytest.mark.parametrize("value", [0.5, 1.0, True, False, "1/2", None, 1j])
    def test_constructor_refuses_inexact_values(self, value):
        """The constructor takes ints and Fractions only; from_values parses."""
        with pytest.raises(TypeError, match="'e'"):
            MorseFunction({"a": 0, "e": value})

    def test_accepts_ints_strings_fractions(self):
        f = MorseFunction.from_values({"a": 1, "b": "1/2", "c": Fraction(3, 4)})
        assert f["b"] == Fraction(1, 2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            MorseFunction.from_values({"a": 0.5})

    @pytest.mark.parametrize("value", [0.5, True])
    def test_wrong_type_is_not_a_package_error(self, value):
        """A float or a bool is a TypeError, which the JSON loader maps."""
        with pytest.raises(TypeError) as info:
            MorseFunction.from_values({"a": value})
        assert not isinstance(info.value, MorsePolyError)
        with pytest.raises(MalformedSpec):
            morse_from_obj({"values": {"a": value}})

    @pytest.mark.parametrize("text", ["0.5", "1e3", "+1", "1/0", "1/-2", "1/2/3", "",
                                      "\u0663", "1/1\u0660", "\u0661/\u0662"])
    def test_string_grammar_shared_with_json(self, text):
        """Malformed text is a package error, and still a ValueError."""
        with pytest.raises(InvalidArgument) as info:
            MorseFunction.from_values({"a": text})
        assert isinstance(info.value, ValueError)
        with pytest.raises(MalformedSpec):
            morse_from_obj({"values": {"a": text}})

    def test_part_past_the_digit_limit(self, digit_limit):
        """A part with more digits than the interpreter converts is malformed
        text; the message names the limit and does not echo the digits."""
        text = "1/" + "3" * 5000
        with pytest.raises(InvalidArgument) as info:
            MorseFunction.from_values({"a": text})
        message = str(info.value)
        assert f"at most {digit_limit} digits" in message and "3333" not in message
        with pytest.raises(MalformedSpec, match=f"at most {digit_limit} digits"):
            morse_from_obj({"values": {"a": text}})


_TWO_PASS_RE = re.compile(r"-?\d+(/[1-9]\d*)?", re.ASCII)


def two_pass_rational(text):
    """The string rule that checked the grammar, ASCII digits only, then
    handed the stripped text to Fraction's own parser: the reference the
    one-parse rule keeps."""
    if not _TWO_PASS_RE.fullmatch(text.strip()):
        raise ValueError(f"expected a rational as 'p' or 'p/q', got {text!r}")
    return Fraction(text.strip())


# Grammar pieces and near-misses: ASCII and non-ASCII digits (Arabic-Indic,
# fullwidth, N'Ko), signs, a decimal point, an exponent, underscores, and
# ASCII and Unicode whitespace.
DIGITS = st.text("0123456789\u0660\u0663\uff10\uff17\u07c1", min_size=0, max_size=4)
rational_texts = st.builds(
    "".join,
    st.lists(
        DIGITS | st.sampled_from(["-", "+", "/", ".", "e", "E", "_", " ", "\t", "\n", "\u2003"]),
        max_size=6,
    ),
) | st.text(max_size=8)


class TestRationalText:
    @settings(max_examples=500, deadline=None)
    @given(text=rational_texts)
    @example(text="007")
    @example(text="-0")
    @example(text="1/0")
    @example(text="1/08")
    @example(text="10/08")
    @example(text="+3")
    @example(text="1.5")
    @example(text="1e3")
    @example(text=" -6/4\n")
    @example(text="\u0661/\u0662")
    @example(text="1/1\u0660")
    @example(text="\u0663")
    def test_one_parse_equals_two_pass_rule(self, text):
        try:
            expected = two_pass_rational(text)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                morse.parse_rational(text)
        else:
            got = morse.parse_rational(text)
            assert type(got) is Fraction and got == expected

    @given(value=st.fractions() | st.integers())
    def test_format_is_the_fraction_string(self, value):
        written = morse_to_obj(MorseFunction({"a": value}))["values"]["a"]
        assert written == str(Fraction(value))
        assert morse.parse_rational(written) == value


class TestValidate:
    def test_dimension_function_valid(self, triangle):
        f = dimension_morse(triangle.poset, triangle.rank)
        classify(triangle.poset, f)  # raises unless f is a discrete Morse function

    def test_constant_on_edge_invalid(self, edge_poset):
        f = MorseFunction.from_values({"a": 0, "b": 0, "e": 0})
        with pytest.raises(InvalidMorseFunction) as info:
            classify(edge_poset, f)
        assert info.value.element == "e"
        assert set(info.value.witnesses) == {("a", "below"), ("b", "below")}

    def test_counterexample_chain_is_valid(self, chain_poset, chain_morse):
        classify(chain_poset, chain_morse)

    def test_missing_value(self, edge_poset):
        with pytest.raises(MissingValue):
            classify(edge_poset, MorseFunction.from_values({"a": 0, "b": 1}))

    def test_extra_value(self, edge_poset):
        f = MorseFunction.from_values({"a": 0, "b": 1, "e": 2, "zz": 3})
        with pytest.raises(UnknownElement):
            classify(edge_poset, f)


class TestClassify:
    def test_triangle_all_critical(self, triangle):
        f = dimension_morse(triangle.poset, triangle.rank)
        classification = classify(triangle.poset, f)
        assert classification.critical_set() == set(triangle.poset.elements)
        assert classification.witnesses == {}

    def test_edge_poset_witnesses(self, edge_poset):
        f = MorseFunction.from_values({"a": 0, "b": 2, "e": 1})
        classification = classify(edge_poset, f)
        assert classification.verdicts == {"a": "critical", "b": "ordinary", "e": "ordinary"}
        assert classification.witnesses["b"] == ("e", "above")
        assert classification.witnesses["e"] == ("b", "below")

    def test_singleton_critical(self):
        poset = build_poset(["x"], [])
        classification = classify(poset, MorseFunction.from_values({"x": 5}))
        assert classification.is_critical("x")

    def test_invalid_function_raises(self, edge_poset):
        with pytest.raises(InvalidMorseFunction):
            classify(edge_poset, MorseFunction.from_values({"a": 0, "b": 0, "e": 0}))


class TestExclusivity:
    def test_chain_counterexample_has_both(self, chain_poset, chain_morse):
        report = check_exclusivity(chain_poset, chain_morse)
        assert not report.two_wide
        assert report.offenders == (("1", "0", "2"),)

    def test_triangle_has_none(self, triangle):
        f = dimension_morse(triangle.poset, triangle.rank)
        report = check_exclusivity(triangle.poset, f)
        assert report.two_wide
        assert report.offenders == ()

    def test_edge_poset_has_none(self, edge_poset):
        f = MorseFunction.from_values({"a": 0, "b": 2, "e": 1})
        assert check_exclusivity(edge_poset, f).offenders == ()

    def test_generated_two_wide_sweep_never_offends(self):
        for seed in range(12):
            face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.6))
            f = gen_morse(seed + 300, face.poset)
            report = check_exclusivity(face.poset, f)
            assert report.two_wide
            assert report.offenders == ()


class TestFindTroubled:
    def test_short_up_example(self, trouble_poset):
        poset, f = trouble_poset
        report = find_troubled(poset, f)
        assert report["a"].short_up == ("x", "y")
        assert report["a"].up == ("x", "y")
        # Dually, y sits over the rising cover (a, x2) with f(y) <= f(a).
        assert report["y"].short_down == ("x2", "a")

    def test_a_plain_dict_in_identifier_order(self, trouble_poset, triangle):
        """The audit is the flag map itself: each obstructed element, in
        identifier order, to its flags; empty when nothing is obstructed."""
        poset, f = trouble_poset
        report = find_troubled(poset, f)
        assert type(report) is dict
        assert list(report) == sorted(report) and {"a", "y"} <= set(report)
        assert all(type(flags) is TroubleFlags for flags in report.values())
        clean = find_troubled(triangle.poset, dimension_morse(triangle.poset, triangle.rank))
        assert type(clean) is dict and not clean

    def test_dimension_function_untroubled(self, triangle):
        f = dimension_morse(triangle.poset, triangle.rank)
        assert find_troubled(triangle.poset, f) == {}

    def test_singleton_untroubled(self):
        poset = build_poset(["x"], [])
        assert find_troubled(poset, MorseFunction.from_values({"x": 0})) == {}

    def test_short_flag_implies_long_flag(self, trouble_poset):
        poset, f = trouble_poset
        for flags in find_troubled(poset, f).values():
            if flags.short_up:
                assert flags.up
            if flags.short_down:
                assert flags.down


class TestLinearExtension:
    def test_respects_order_and_is_deterministic(self, triangle):
        order = linear_extension(triangle.poset)
        position = {e: i for i, e in enumerate(order)}
        for a, b in triangle.poset.covers:
            assert position[a] < position[b]
        assert order == linear_extension(triangle.poset)

    def test_rank_then_identifier(self, triangle):
        order = linear_extension(triangle.poset)
        assert order == ("1", "2", "3", "1,2", "1,3", "2,3", "1,2,3")


class TestNormalize:
    def test_requires_two_wide(self, chain_poset, chain_morse):
        with pytest.raises(HypothesisViolated) as caught:
            normalize(chain_poset, chain_morse)
        assert caught.value.prop == "not 2-wide"
        assert caught.value.detail == is_two_wide(chain_poset).witness

    def test_requires_valid(self, edge_poset):
        with pytest.raises(InvalidMorseFunction):
            normalize(edge_poset, MorseFunction.from_values({"a": 0, "b": 0, "e": 0}))

    def test_edge_poset_tie(self, edge_poset):
        f = MorseFunction.from_values({"a": 0, "b": 1, "e": 1})
        g = normalize(edge_poset, f)
        assert g.is_injective()
        classification = classify(edge_poset, g)
        assert classification.verdicts == {"a": "critical", "b": "ordinary", "e": "ordinary"}
        assert g["b"] >= g["e"]  # the violating pair survives

    def test_triangle_dimension(self, triangle):
        f = dimension_morse(triangle.poset, triangle.rank)
        g = normalize(triangle.poset, f)
        assert g.is_injective()
        assert classify(triangle.poset, g).critical_set() == set(triangle.poset.elements)

    def test_already_normalized_is_fixed_point(self, edge_poset):
        f = MorseFunction.from_values({"a": 0, "b": 2, "e": 1})
        assert find_troubled(edge_poset, f) == {}
        g = normalize(edge_poset, f)
        assert g.values == f.values

    def test_int_values_stay_exact(self, edge_poset, trouble_poset):
        """An int-valued input is halved into Fractions, never into floats:
        by the spread sweep on a tie, and by the up sweep's repair."""
        cases = [(edge_poset, {"a": 0, "b": 0, "e": 1}),
                 (trouble_poset[0], {"a": 5, "x": 1, "y": 2, "x2": 6})]
        for poset, values in cases:
            g = normalize(poset, MorseFunction(values))
            assert g.values != values
            assert {type(v) for v in g.values.values()} <= {int, Fraction}

    def test_short_up_repair(self, trouble_poset):
        poset, f = trouble_poset
        g = normalize(poset, f)
        assert g.is_injective()
        assert find_troubled(poset, g) == {}
        assert classify(poset, g).critical_set() == classify(poset, f).critical_set()
        assert monotone_extension_holds(poset, g)

    def test_monotone_extension_quadruples(self, trouble_poset):
        poset, f = trouble_poset
        g = normalize(poset, f)
        for x, y in poset.covers:
            if g[x] >= g[y]:
                continue
            for z in poset.strict_down_set(x):
                for w in poset.strict_up_set(y):
                    assert g[z] < g[y]
                    assert g[x] < g[w]


class TestStageFaults:
    """A broken stage fails loudly, naming the stage, at the step it breaks."""

    @pytest.mark.parametrize(
        "value, message",
        [
            # a rises above both upper covers x (1) and x2 (6).
            (Fraction(100), "stage up_sweep broke the Morse condition at 'a'"),
            # a drops below both upper covers: still valid, but a and x
            # turn critical.
            (Fraction(-10), "stage up_sweep changed the critical set at ['a', 'x']"),
        ],
    )
    def test_bad_midpoint_is_caught(self, trouble_poset, monkeypatch, value, message):
        poset, f = trouble_poset
        monkeypatch.setattr(normalization, "_midpoint", lambda lo, hi: value)
        with pytest.raises(AssertionError) as info:
            normalize(poset, f)
        assert str(info.value).startswith(message)
        assert "when moving 'a' from 5 to" in str(info.value)

    def test_spread_key_outside_its_gap_is_caught(self, edge_poset, monkeypatch):
        set_value = normalization._Pipeline.set_value

        def overshooting(state, change, new):
            # Every moved element's key shifted past all n keys: a key moved
            # out of a tie class lands above the next class.
            if change.stage == "spread_sweep":
                new += len(state.values)
            set_value(state, change, new)

        monkeypatch.setattr(normalization._Pipeline, "set_value", overshooting)
        f = MorseFunction.from_values({"a": 0, "b": 0, "e": 1})
        with pytest.raises(AssertionError) as info:
            normalize(edge_poset, f)
        assert str(info.value) == (
            "stage spread_sweep changed the critical set at ['a', 'e'] "
            "when moving 'a' from 0 to 1/2"
        )


@st.composite
def changed_functions(draw):
    """A valid function on a random poset, a seeded simplicial face poset or
    the face poset of a d-cube or cubical torus (regular CW posets that are
    not simplicial), and one single-value change to it: (poset, f, element,
    new value)."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    kind = draw(st.sampled_from(("random", "simplicial", "cubical")))
    if kind == "cubical":
        spec = draw(st.builds(cube, st.integers(0, 3))
                    | st.builds(cubical_torus, st.sampled_from((3, 4)), st.sampled_from((3, 4))))
        poset = face_poset_cellular(spec).poset
    elif kind == "random":
        n = draw(st.integers(min_value=1, max_value=7))
        names = [f"p{i}" for i in range(n)]
        pairs = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if draw(st.booleans())
        ]
        poset = build_poset(names, transitive_reduction(names, pairs))
    else:
        poset = face_poset_simplicial(gen_complex(seed, 5, 2, 0.5)).poset
    f = gen_morse(seed, poset)
    element = draw(st.sampled_from(poset.sorted_elements))
    # Existing values make ties (the usual way to break validity); fresh
    # fractions move the element freely.
    new = draw(
        st.sampled_from(sorted(set(f.values.values())))
        | st.fractions(min_value=-20, max_value=20, max_denominator=6)
    )
    return poset, f, element, new


@st.composite
def two_wide_posets(draw):
    """A seeded face poset, or a random DAG or ranked poset kept only when
    2-wide, so that posets that are not face posets are covered too."""
    kind = draw(st.sampled_from(("face", "dag", "ranked")))
    if kind == "face":
        seed = draw(st.integers(min_value=0, max_value=10**6))
        dimension = draw(st.integers(min_value=2, max_value=3))
        return face_poset_simplicial(gen_complex(seed, 5, dimension, 0.6)).poset
    if kind == "dag":
        n = draw(st.integers(min_value=1, max_value=8))
        names = [f"p{i}" for i in range(n)]
        pairs = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if draw(st.booleans())
        ]
        poset = build_poset(names, transitive_reduction(names, pairs))
    else:
        # Covers join consecutive levels only, so they are already reduced.
        sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=5))
        levels = [[f"r{i}_{j}" for j in range(k)] for i, k in enumerate(sizes)]
        covers = [
            (a, b)
            for lower, upper in zip(levels, levels[1:])
            for a in lower
            for b in upper
            if draw(st.integers(min_value=0, max_value=5)) > 0
        ]
        poset = build_poset([e for level in levels for e in level], covers)
    assume(is_two_wide(poset))
    return poset


@st.composite
def two_wide_functions(draw):
    """A 2-wide poset and a valid function on it: a gen_morse function, or
    one with further ties made by copying values between elements wherever
    the copy keeps the function valid."""
    poset = draw(two_wide_posets())
    values = dict(gen_morse(draw(st.integers(min_value=0, max_value=10**6)), poset).values)
    elements = st.sampled_from(poset.sorted_elements)
    for e, source in draw(st.lists(st.tuples(elements, elements), max_size=len(poset))):
        old, values[e] = values[e], values[source]
        if morse_offence(poset, MorseFunction(dict(values))):
            values[e] = old
    return poset, MorseFunction(values)


def with_examples(cases):
    """Run a ``case``-taking property on these cases as well as drawn ones."""

    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test

    return decorate


class TestLocalRecheck:
    """The changed element and its covers decide the whole-function verdicts."""

    @settings(max_examples=200, deadline=None)
    @given(case=changed_functions())
    def test_matches_whole_function_oracle(self, case):
        poset, f, element, new = case
        values = dict(f.values)
        values[element] = new
        changed = MorseFunction(values)
        offence = morse_offence(poset, changed)
        try:
            critical = morse._recheck_near(poset, values, element)
        except InvalidMorseFunction as exc:
            assert offence is not None and exc.element == offence[0]
            return
        assert offence is None
        near = {element, *poset.lower_covers(element), *poset.upper_covers(element)}
        assert set(critical) == near
        before = classify(poset, f).verdicts
        for b, now in classify(poset, changed).verdicts.items():
            if b in near:
                assert critical[b] == (now == "critical")
            else:
                assert now == before[b]


def morse_oracle(poset, values):
    """The discrete Morse condition read straight off the definition.

    For each element b in identifier order: the elements a covered by b
    (a < b with nothing strictly between) with f(a) >= f(b), and the
    elements c covering b with f(b) >= f(c), each in identifier order.
    """
    elements = sorted(poset.elements)
    less = {(a, b) for b in elements for a in poset.strict_down_set(b)}

    def covered(a, b):
        return (a, b) in less and not any((a, c) in less and (c, b) in less for c in elements)

    return [
        (
            b,
            [a for a in elements if covered(a, b) and values[a] >= values[b]],
            [c for c in elements if covered(b, c) and values[b] >= values[c]],
        )
        for b in elements
    ]


def oracle_offence(rows):
    """(element, witnesses) at the first element with two non-increasing
    covers on one side, the lower side first; None for a valid function."""
    for b, below, above in rows:
        if len(below) > 1:
            return b, tuple((a, "below") for a in below)
        if len(above) > 1:
            return b, tuple((c, "above") for c in above)
    return None


@st.composite
def valued_posets(draw):
    """A poset, 2-wide or not, and a total function on it that often ties:
    small random integers, or a gen_morse function with values copied
    between elements.  Many of these functions are invalid."""
    if draw(st.booleans()):
        poset = draw(two_wide_posets())
    else:
        n = draw(st.integers(min_value=1, max_value=7))
        names = [f"p{i}" for i in range(n)]
        pairs = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if draw(st.booleans())
        ]
        poset = build_poset(names, transitive_reduction(names, pairs))
    elements = poset.sorted_elements
    if draw(st.booleans()):
        values = {e: Fraction(draw(st.integers(min_value=0, max_value=3))) for e in elements}
    else:
        values = dict(gen_morse(draw(st.integers(min_value=0, max_value=10**6)), poset).values)
        pick = st.sampled_from(elements)
        for e, source in draw(st.lists(st.tuples(pick, pick), max_size=3)):
            values[e] = values[source]
    return poset, MorseFunction(values)


class TestMorseConditionOracle:
    """Every reader of the Morse condition agrees with the definition."""

    @settings(max_examples=300, deadline=None)
    @given(case=valued_posets())
    def test_whole_function_readers(self, case):
        poset, f = case
        rows = morse_oracle(poset, f.values)
        offence = oracle_offence(rows)

        if offence is not None:
            for reader in (classify, check_exclusivity, find_troubled):
                with pytest.raises(InvalidMorseFunction) as info:
                    reader(poset, f)
                assert (info.value.element, info.value.witnesses) == offence
                assert str(info.value) == (
                    f"not a discrete Morse function: element {offence[0]!r} has "
                    f"non-increasing covers {offence[1]}"
                )
            return

        classification = classify(poset, f)
        assert classification.verdicts == {
            b: "ordinary" if below or above else "critical" for b, below, above in rows
        }
        assert classification.witnesses == {
            b: (below[0], "below") if below else (above[0], "above")
            for b, below, above in rows
            if below or above
        }
        assert check_exclusivity(poset, f).offenders == tuple(
            (b, below[0], above[0]) for b, below, above in rows if below and above
        )

    @settings(max_examples=200, deadline=None)
    @given(case=changed_functions())
    def test_local_recheck(self, case):
        poset, f, element, new = case
        values = dict(f.values)
        values[element] = new
        rows = morse_oracle(poset, values)
        offence = oracle_offence(rows)
        if offence is not None:
            with pytest.raises(InvalidMorseFunction) as info:
                morse._recheck_near(poset, values, element)
            assert (info.value.element, info.value.witnesses) == offence
            return
        near = {element, *poset.lower_covers(element), *poset.upper_covers(element)}
        assert morse._recheck_near(poset, values, element) == {
            b: not below and not above for b, below, above in rows if b in near
        }


def vacuity_grid():
    # Five levels {w,w2},{z,z2},{u,u2},{j,j2},{i}, complete covers between
    # consecutive levels: 2-wide by construction, height 5.
    elements = ["w", "w2", "z", "z2", "u", "u2", "j", "j2", "i"]
    covers = []
    levels = [["w", "w2"], ["z", "z2"], ["u", "u2"], ["j", "j2"], ["i"]]
    for lower, upper in zip(levels, levels[1:]):
        covers += [(a, b) for a in lower for b in upper]
    return build_poset(elements, covers)


def vacuity_grid_function():
    # u is short-down obstructed via (z, w2); w2 is, necessarily,
    # short-up obstructed via (z2, u).
    return MorseFunction.from_values(
        {
            "w": 0, "w2": 5, "z": 6, "z2": 1,
            "u": Fraction(9, 2), "u2": 7,
            "j": Fraction(53, 10), "j2": 9, "i": Fraction(27, 5),
        }
    )


def vacuity_cases():
    cases = [(vacuity_grid(), vacuity_grid_function())]
    for seed in range(10):
        face = face_poset_simplicial(gen_complex(seed, 5, 3, 0.7))
        cases.append((face.poset, gen_morse(seed + 700, face.poset)))
    return cases


class TestDownSweepVacuity:
    """On 2-wide posets the up sweep leaves no short-down obstruction behind.

    A short-down obstruction at u via w < z < u would need f(u) <= f(w); but
    2-wideness yields d != z with w < d < u, validity at u forces f(d) < f(u),
    and then (d, u) is a short-up witness at w.  So "no short-up obstruction"
    already implies "no short-down obstruction", which is why the pipeline
    has no down sweep.  These tests pin that fact.
    """

    def test_short_down_forces_short_up(self):
        report = find_troubled(vacuity_grid(), vacuity_grid_function())
        assert report["u"].short_down == ("z", "w2")
        assert report["w2"].short_up == ("z2", "u")

    @settings(max_examples=150, deadline=None)
    @given(case=two_wide_functions())
    @with_examples(vacuity_cases())
    def test_short_down_forces_short_up_on_random_posets(self, case):
        poset, f = case
        flags = find_troubled(poset, f)
        assert list(flags) == sorted(flags)
        values = f.values
        for u in poset.sorted_elements:
            for z in poset.lower_covers(u):
                for w in poset.lower_covers(z):
                    if values[u] <= values[w] < values[z]:
                        assert flags[u].short_down
                        assert flags[w].short_up

    def test_pipeline_resolves_everything_in_the_up_sweep(self):
        grid = vacuity_grid()
        trace = normalize_trace(grid, vacuity_grid_function())
        stages = {m.stage for m in trace.modifications}
        assert stages <= {"up_sweep", "spread_sweep"}
        assert any(m.element == "w2" and m.stage == "up_sweep" for m in trace.modifications)
        assert find_troubled(grid, trace.result) == {}
        assert trace.result.is_injective()

    @settings(max_examples=150, deadline=None)
    @given(case=two_wide_functions())
    @with_examples(vacuity_cases())
    def test_no_short_down_survives_the_up_sweep(self, case):
        poset, f = case
        trace = normalize_trace(poset, f)
        assert find_troubled(poset, trace.after_up_sweep) == {}
        assert {m.stage for m in trace.modifications} <= {"up_sweep", "spread_sweep"}


class TestTrace:
    def test_stage_snapshots_are_distinct_objects(self, trouble_poset):
        poset, f = trouble_poset
        before = dict(f.values)
        trace = normalize_trace(poset, f)
        assert f.values == before  # input never mutated
        assert trace.result.is_injective()

    def test_staging_invariants(self, trouble_poset):
        poset, f = trouble_poset
        trace = normalize_trace(poset, f)
        assert find_troubled(poset, trace.after_up_sweep) == {}
        assert find_troubled(poset, trace.result) == {}

    def test_classification_is_the_inputs(self, trouble_poset):
        poset, f = trouble_poset
        trace = normalize_trace(poset, f)
        assert trace.classification == classify(poset, f)
        assert trace.classification.critical_set() == classify(poset, trace.result).critical_set()

    def test_each_modification_changes_one_element(self, trouble_poset):
        poset, f = trouble_poset
        trace = normalize_trace(poset, f)
        values = dict(f.values)
        for mod in trace.modifications:
            assert values[mod.element] == mod.old
            values[mod.element] = mod.new
        assert values == dict(trace.result.values)

    def test_order_is_a_linear_extension(self, trouble_poset):
        poset, _ = trouble_poset
        position = {e: i for i, e in enumerate(linear_extension(poset))}
        for a, b in poset.covers:
            assert position[a] < position[b]


class TestSpreadSweepReference:
    """The bisect-based spread sweep against the rule it implements, applied
    directly: a shared value moves to the midpoint between it and the next
    larger value in the whole image, or to one past the maximum."""

    @staticmethod
    def direct(order, values):
        values = dict(values)
        moves = []
        for e in order:
            current = values[e]
            if sum(1 for v in values.values() if v == current) == 1:
                continue
            larger = [v for v in values.values() if v > current]
            new = (current + min(larger)) / 2 if larger else current + 1
            moves.append((e, current, new))
            values[e] = new
        return values, moves

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), dimension=st.booleans())
    def test_matches_direct_rule(self, seed, dimension):
        face = face_poset_simplicial(gen_complex(seed, 6, 1 + seed % 3, 0.5))
        f = dimension_morse(face.poset, face.rank) if dimension else gen_morse(seed, face.poset)
        trace = normalize_trace(face.poset, f)
        values, moves = self.direct(linear_extension(face.poset), trace.after_up_sweep.values)
        assert values == dict(trace.result.values)
        assert moves == [
            (m.element, m.old, m.new) for m in trace.modifications if m.stage == "spread_sweep"
        ]

    @settings(max_examples=150, deadline=None)
    @given(case=two_wide_functions())
    @with_examples(vacuity_cases())
    def test_keys_match_the_rational_pipeline(self, case):
        # The Fraction reference: the up sweep, then the direct rule on its result.
        poset, f = case
        order = linear_extension(poset)
        state = normalization._Pipeline(poset, f)
        state.up_sweep(order)
        values, moves = self.direct(order, state.values)
        expected = [(m.stage, m.element, m.old, m.new) for m in state.modifications]
        expected += [("spread_sweep", *move) for move in moves]

        trace = normalize_trace(poset, f)
        assert trace.classification == classify(poset, f)
        assert trace.after_up_sweep.values == state.values
        assert trace.result.values == values
        assert [(m.stage, m.element, m.old, m.new) for m in trace.modifications] == expected
        # The keys order the elements exactly as the written rationals do.
        assert all(type(k) is int for k in trace.keys.values.values())
        assert sorted(trace.keys.values.values()) == list(range(len(poset)))
        by_key = sorted(poset.elements, key=trace.keys.values.__getitem__)
        assert by_key == sorted(poset.elements, key=values.__getitem__)
        for b in poset.elements:
            assert combinatorial_index(poset, trace.keys, b) == combinatorial_index(
                poset, trace.result, b
            )


_MERSENNE = 2**61 - 1  # the modulus of Python's numeric hash: its multiples hash to 0


def hash_sharing_values():
    """Rationals whose hashes collide: small ints, multiples of 2^61 - 1,
    and a dyadic p/2^k or the int p * 2^(61 - k), which hashes alike."""
    return st.one_of(
        st.integers(-3, 3),
        st.integers(-3, 3).map(_MERSENNE.__mul__),
        st.builds(lambda p, k, dyadic: Fraction(p, 2**k) if dyadic else p * 2 ** (61 - k),
                  st.integers(-4, 4), st.integers(0, 61), st.booleans()),
    )


@st.composite
def ranking_cases(draw):
    """An order of up to 8 elements and values drawn from a few hash-sharing
    ones, so that tie classes form."""
    pool = draw(st.lists(hash_sharing_values(), min_size=1, max_size=4))
    names = [f"e{i}" for i in range(draw(st.integers(1, 8)))]
    values = {e: draw(st.sampled_from(pool)) for e in names}
    return tuple(draw(st.permutations(names))), values


class _Recorded(normalization._Pipeline):
    """The pipeline's rank and spread sweep on bare values: each change is
    written and recorded, with no poset to recheck it on."""

    def __init__(self, values):
        self.values, self.modifications = dict(values), []

    def set_value(self, change, new):
        self.values[change.element] = new
        self.modifications.append(change)


def typed(values):
    return [(e, type(v), v) for e, v in values.items()]


class TestRankReference:
    """The one-sort rank and the spread sweep that reads it, against the
    hashed tie-class ranking they replaced, kept here as the reference."""

    @staticmethod
    def reference(state, order, rationals):
        """Each value's tie class is its index among the distinct values, a
        sorted set; each class's lowest key is held, and a map sends it to
        the next larger value, then to each value written above it.
        Returns the keys, the held keys and the written rationals."""
        distinct = sorted(set(state.values.values()))
        index = {v: i for i, v in enumerate(distinct)}
        tie_class = {e: index[v] for e, v in state.values.items()}
        keys = {e: i for i, e in enumerate(sorted(reversed(order), key=tie_class.__getitem__))}
        held = {}
        for e, key in keys.items():
            held.setdefault(tie_class[e], key)
        state.values = {e: held[c] for e, c in tie_class.items()}
        held_keys = dict(state.values)
        tops = dict(zip(held.values(), distinct[1:] + [None]))
        written = dict(rationals)
        for e in order:
            key = state.values[e]
            if keys[e] == key:
                continue
            value, top = written[e], tops[key]
            new = value + 1 if top is None else (value + top) * Fraction(1, 2)
            written[e] = tops[key] = new
            state.set_value(Modification("spread_sweep", e, value, new), keys[e])
        return keys, held_keys, written

    def test_the_drawn_values_share_hashes(self):
        assert {hash(k * _MERSENNE) for k in range(-3, 4)} == {0}
        assert all(hash(Fraction(p, 2**k)) == hash(p * 2 ** (61 - k))
                   for p in range(-4, 5) for k in range(62))

    @settings(max_examples=300, deadline=None)
    @given(ranking_cases())
    def test_matches_the_hashed_ranking(self, case):
        order, values = case
        state, old = _Recorded(values), _Recorded(values)
        ranked = state.rank(order)
        held = typed(state.values)
        written = state.spread_sweep(order, values, ranked)
        keys, old_held, old_written = self.reference(old, order, values)

        assert {e: i for i, e in enumerate(ranked)} == keys
        assert held == typed(old_held)
        assert typed(written) == typed(old_written)
        assert typed(state.values) == typed(old.values)
        assert [(m.stage, m.element, m.old, type(m.new), m.new) for m in state.modifications] == [
            (m.stage, m.element, m.old, type(m.new), m.new) for m in old.modifications]

    @pytest.mark.parametrize("seed", range(4))
    def test_hash_sharing_functions_normalize_alike(self, seed):
        # Scaled by 12 (2^61 - 1) and shifted by 1/2^61, a function orders
        # the elements as before, and the sweeps' midpoints commute with it.
        face = face_poset_simplicial(gen_complex(seed, 6, 2, 0.5))
        f = gen_morse(seed, face.poset)
        scaled = MorseFunction({e: v * 12 * _MERSENNE + Fraction(1, 2**61)
                                for e, v in f.values.items()})
        trace, scaled_trace = normalize_trace(face.poset, f), normalize_trace(face.poset, scaled)
        assert scaled_trace.keys == trace.keys
        assert [(m.stage, m.element) for m in scaled_trace.modifications] == [
            (m.stage, m.element) for m in trace.modifications]


def idempotence_cases():
    cases = []
    for seed in range(8):
        face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.6))
        cases.append((face.poset, gen_morse(seed + 50, face.poset)))
    return cases


class TestNormalizeSweep:
    """Seeded mini-sweep and the idempotence property; the full 200-instance
    run lives in the acceptance suite."""

    def test_criticality_preserved(self):
        for seed in range(12):
            spec = gen_complex(seed, 5, 2, 0.5 + 0.05 * (seed % 5))
            face = face_poset_simplicial(spec)
            for fseed in (0, 1):
                f = gen_morse(97 * seed + fseed, face.poset)
                g = normalize(face.poset, f)
                assert g.is_injective()
                assert find_troubled(face.poset, g) == {}
                assert (
                    classify(face.poset, g).critical_set()
                    == classify(face.poset, f).critical_set()
                )
                assert monotone_extension_holds(face.poset, g)

    @settings(max_examples=100, deadline=None)
    @given(case=two_wide_functions())
    @with_examples(idempotence_cases())
    def test_idempotent(self, case):
        # A normalized function is injective and obstruction-free, so a
        # second run must be the identity.
        poset, f = case
        g = normalize(poset, f)
        assert normalize(poset, g).values == g.values
