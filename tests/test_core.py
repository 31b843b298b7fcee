from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperpaths import (
    GrammarError,
    Hyperarc,
    Production,
    Query,
    ValidationError,
    build,
    parse_hypergraph,
    prune_relatively_useless,
    restrict,
    serialize_hypergraph,
    viterbi_inside,
    viterbi_outside,
)
from hyperpaths.core import _closed_arcs, _distinct_tails, check_sources
from hyperpaths.textio import format_float

from support import (
    arc_total_cost, assert_derived_arrays, occurrences, random_hypergraph, random_sources
)


def test_build_f1(f1):
    assert f1.n == 4
    assert f1.num_arcs == 4
    assert_derived_arrays(f1)
    # e4's doubled tail appears once in the adjacency
    assert f1.forward[1] == (3, 4)
    # n plus, per arc, the head and each tail pair
    assert f1.input_size == 4 + 2 + 2 + 3 + 2


def test_build_trivial():
    g = build(1, ())
    assert_derived_arrays(g)
    assert g.n == 1 and g.num_arcs == 0
    assert g.forward == ((),)


def test_negative_length_rejected():
    with pytest.raises(ValidationError) as info:
        Hyperarc(0, ((0, 1),), -1.0)
    assert str(info.value) == "arc length must be finite and nonnegative, got -1.0"


def test_zero_multiplicity_rejected():
    with pytest.raises(ValidationError, match="multiplicity"):
        Hyperarc(0, ((0, 0),), 1.0)


def test_empty_tails_rejected():
    with pytest.raises(ValidationError, match="at least one tail"):
        Hyperarc(0, (), 1.0)


def test_nan_length_rejected():
    with pytest.raises(ValidationError) as info:
        Hyperarc(0, ((0, 1),), float("nan"))
    assert str(info.value) == "arc length must be finite and nonnegative, got nan"


def test_out_of_range_vertex_names_arc():
    with pytest.raises(ValidationError, match="arc 1.*out of range"):
        build(2, (Hyperarc(5, ((0, 1),), 1.0),))
    with pytest.raises(ValidationError, match="arc 2.*tail vertex 9"):
        build(2, (Hyperarc(0, ((1, 1),), 1.0), Hyperarc(1, ((9, 1),), 1.0)))


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError, match="duplicate vertex name"):
        build(("A", "A"), ())


def test_distinct_tails_aggregates_spread_pairs():
    arc = Hyperarc(0, ((1, 1), (2, 1), (1, 1)), 1.0)
    assert occurrences(arc) == (1, 2, 1)
    assert _distinct_tails(arc.tails) == ((1, 2), (2, 1))
    assert build(3, (arc,)).input_size == 3 + 1 + 3


def test_query_validation():
    Query(((0, 0.0), (1, 0.5)), 2)
    with pytest.raises(ValidationError, match="duplicate source"):
        Query(((0, 0.0), (0, 1.0)), 1)
    with pytest.raises(ValidationError, match="source 0: initial cost must be finite and nonnegative"):
        Query(((0, -1.0),), 1)
    with pytest.raises(ValidationError, match="at least one source"):
        Query((), 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: viterbi_inside(g, [(0, "x")]), "source 0: initial cost must be a number, got 'x'"),
        (lambda g: viterbi_inside(g, [(0, None)]), "source 0: initial cost must be a number, got None"),
        (lambda g: viterbi_inside(g, [(0,)]), "source must be a (vertex, cost) pair, got (0,)"),
        (lambda g: viterbi_inside(g, [0]), "source must be a (vertex, cost) pair, got 0"),
        (lambda g: Hyperarc(0, ((1, 1),), "x"), "arc length must be a number, got 'x'"),
        (lambda g: Hyperarc(0, ((1, 1),), None), "arc length must be a number, got None"),
    ],
    ids=["cost x", "cost None", "short pair", "bare vertex", "length x", "length None"],
)
def test_malformed_library_input_is_a_validation_error(f1, call, message):
    with pytest.raises(ValidationError) as info:
        call(f1)
    assert str(info.value) == message


def test_numbers_as_strings_stay_accepted():
    assert check_sources([(0, "1.5"), (1, 2)]) == ((0, 1.5), (1, 2.0))
    assert Hyperarc(0, ((1, 1),), "2").length == 2.0


# Every number argument of the library: a call on f1 that passes ``x`` there
# and returns the number as stored (the result where nothing stores it), and
# its two error messages, for a value ``float`` cannot convert and for one
# out of range.
COST = (
    "source 0: initial cost must be a number, got {!r}",
    "source 0: initial cost must be finite and nonnegative, got {!r}",
)
BEAM = ("beam must be a number, got {!r}", "beam must be nonnegative, got {!r}")
NUMBER_ARGUMENTS = {
    "inside source cost": (lambda g, x: viterbi_inside(g, [(0, x)]).inside[0], *COST),
    "Query source cost": (lambda g, x: Query([(0, x)], 3).sources[0][1], *COST),
    "serialize source cost": (lambda g, x: serialize_hypergraph(g, [(0, x)]), *COST),
    "Hyperarc length": (
        lambda g, x: Hyperarc(0, ((1, 1),), x).length,
        "arc length must be a number, got {!r}",
        "arc length must be finite and nonnegative, got {!r}",
    ),
    "outside beam": (
        lambda g, x: viterbi_outside(g, viterbi_inside(g, [(0, 0.0)]), 3, beam=x), *BEAM
    ),
    "prune beam": (
        lambda g, x: prune_relatively_useless(
            g, ins := viterbi_inside(g, [(0, 0.0)]), viterbi_outside(g, ins, 3), x
        ),
        *BEAM,
    ),
    "inside stop beam": (lambda g, x: viterbi_inside(g, [(0, 0.0)], stop=(3, x)), *BEAM),
    "Production weight": (
        lambda g, x: Production("S", ("a",), x).weight,
        "production 'S': weight {!r} is not a number",
        "production 'S': weight must be finite and > 0, got {!r}",
    ),
}
BAD_NUMBERS = ("x", None, math.nan, -1.0, -math.inf, 10**400, math.inf)


@pytest.mark.parametrize(
    "argument, bad",
    [
        pytest.param(argument, bad, id=f"{argument}-{bad!r:.12}")
        for argument, (_, _, out_of_range) in NUMBER_ARGUMENTS.items()
        for bad in BAD_NUMBERS
        if not (bad == math.inf and out_of_range == BEAM[1])  # a beam may be inf
    ],
)
def test_number_arguments_are_checked_by_one_rule(f1, argument, bad):
    call, not_a_number, out_of_range = NUMBER_ARGUMENTS[argument]
    with pytest.raises((ValidationError, GrammarError)) as info:
        call(f1, bad)
    expected = GrammarError if argument == "Production weight" else ValidationError
    assert type(info.value) is expected
    try:
        message = out_of_range.format(float(bad))
    except (TypeError, ValueError, OverflowError):
        message = not_a_number.format(bad)
    assert str(info.value) == message


@pytest.mark.parametrize("argument", NUMBER_ARGUMENTS)
def test_number_arguments_accept_what_float_takes(f1, argument):
    call, _, out_of_range = NUMBER_ARGUMENTS[argument]
    good = ["1.5", 2, True]
    good += [] if argument == "Production weight" else [-0.0]  # a weight is above 0
    good += [math.inf] if out_of_range == BEAM[1] else []
    for x in good:
        got = call(f1, x)
        assert not isinstance(got, float) or (type(got) is float and got == float(x))


def test_serialize_checks_its_sources_as_the_passes_do(f1):
    """Text the parser would reject is never written."""
    with pytest.raises(ValidationError, match="^duplicate source vertex 0$"):
        serialize_hypergraph(f1, [(0, 0.0), (0, 1.0)])
    with pytest.raises(ValidationError, match=r"^source must be a \(vertex, cost\) pair, got 0$"):
        serialize_hypergraph(f1, [0])
    assert serialize_hypergraph(f1, [(0, True)]).endswith("source omega 1\n")
    assert serialize_hypergraph(f1, ()) == serialize_hypergraph(f1)


def test_build_rejects_a_negative_count_and_a_non_arc():
    with pytest.raises(ValidationError, match="^vertex count must be nonnegative$"):
        build(-1, [])
    with pytest.raises(ValidationError, match="^arc 1: expected a Hyperarc, got object$"):
        build(2, [object()])


@pytest.mark.parametrize(
    "vertices, message",
    [
        (True, "vertices must be a count or a sequence of names, got True"),
        (2.5, "vertices must be a count or a sequence of names, got 2.5"),
        (None, "vertices must be a count or a sequence of names, got None"),
        ([1, 2], "vertex name must be a string or None, got 1"),
        ("ab", "vertices must be a count or a sequence of names, got 'ab'"),
    ],
    ids=["bool", "float", "None", "int names", "str"],
)
def test_build_checks_its_vertices(vertices, message):
    with pytest.raises(ValidationError) as info:
        build(vertices, [])
    assert str(info.value) == message
    assert build(2, []).names == ("v0", "v1")
    assert build(["a", None], []).names == ("a", "v1")


def test_arc_index_is_checked(f1):
    assert f1.arc(4) == Hyperarc(3, ((1, 2),), 3.0)
    for bad in (0, 5, -1):
        with pytest.raises(ValidationError, match=rf"^arc index {bad} out of range 1\.\.4$"):
            f1.arc(bad)
    for bad in (True, 1.0, "1", None):
        with pytest.raises(ValidationError) as info:
            f1.arc(bad)
        assert str(info.value) == f"arc index must be an integer, got {bad!r}"


def test_restrict_identity(f1):
    res = restrict(f1, range(4))
    assert res.graph == f1
    assert res.vertex_map == {v: v for v in range(4)}
    assert res.arc_map == {i: i for i in range(1, 5)}


def test_restrict_drops_arcs_touching_removed_vertex(f1):
    res = restrict(f1, {0, 1, 3})  # omega, A, S: arcs e2, e3 reference B
    assert sorted(res.arc_map) == [1, 4]
    assert res.graph.num_arcs == 2
    assert res.graph.names == ("omega", "A", "S")
    # relative arc order is preserved
    assert res.arc_map[1] == 1 and res.arc_map[4] == 2


def test_restrict_to_empty(f1):
    res = restrict(f1, ())
    assert res.graph.n == 0 and res.graph.num_arcs == 0


def test_restrict_idempotent_random():
    rng = Random(7)
    for _ in range(40):
        g = random_hypergraph(rng)
        keep = [v for v in range(g.n) if rng.random() < 0.6]
        r1 = restrict(g, keep)
        r2 = restrict(r1.graph, range(r1.graph.n))
        assert r2.graph == r1.graph


def test_restrict_membership_predicate_random():
    rng = Random(8)
    for _ in range(40):
        g = random_hypergraph(rng)
        keep = {v for v in range(g.n) if rng.random() < 0.6}
        res = restrict(g, keep)
        surviving = set(res.arc_map)
        for i in g.arc_indices:
            arc = g.arc(i)
            expected = arc.head in keep and all(v in keep for v, _ in arc.tails)
            assert (i in surviving) == expected


def test_closed_arcs_by_either_method_match_a_brute_force_closure():
    """``_closed_arcs`` drops the arcs of the unflagged vertices' adjacency
    when those vertices are fewer than the ids, and tests each id
    otherwise; both keep the ids whose head and tails are all flagged, in
    the order of ``ids``."""
    rng = Random(10)
    by_adjacency = by_ids = 0
    for _ in range(200):
        g = random_hypergraph(rng, n_range=(1, 25), m_range=(0, 50))
        unflagged = rng.choice([0.0, 0.05, 0.2, 0.5, 0.8, 1.0])
        flags = [rng.random() >= unflagged for _ in range(g.n)]
        subset = [i for i in g.arc_indices if rng.random() < 0.5]
        for ids in (g.arc_indices, subset, subset[::-1], []):
            expected = [i for i in ids
                        if flags[g.arc(i).head] and all(flags[v] for v, _ in g.arc(i).tails)]
            assert _closed_arcs(g, flags, ids) == expected
            assert _closed_arcs(g, tuple(flags), ids) == expected
            if flags.count(False) < len(ids):
                by_adjacency += 1
            else:
                by_ids += 1
    assert by_adjacency >= 200 and by_ids >= 200, (by_adjacency, by_ids)


def test_build_derives_the_arc_arrays_random():
    rng = Random(9)
    for _ in range(30):
        assert_derived_arrays(random_hypergraph(rng))


def test_serialize_parse_roundtrip_bytes(f1):
    rng = Random(10)
    graphs = [f1] + [random_hypergraph(rng) for _ in range(25)]
    for g in graphs:
        sources = random_sources(rng, g) if g.n else ()
        target = rng.randrange(g.n) if g.n else None
        text = serialize_hypergraph(g, sources, target)
        parsed = parse_hypergraph(text)
        assert serialize_hypergraph(parsed.graph, parsed.sources, parsed.target) == text


def test_parse_reports_line_numbers():
    with pytest.raises(ValidationError, match="line 2"):
        parse_hypergraph("vertex A\narc A <- @ 1\n")
    with pytest.raises(ValidationError, match="line 3.*negative length"):
        parse_hypergraph("vertex A\nvertex B\narc A <- B @ -2\n")
    with pytest.raises(ValidationError, match="line 1.*unknown directive"):
        parse_hypergraph("frobnicate A\n")


def test_parse_comments_and_multiplicity():
    parsed = parse_hypergraph("arc S <- A*2 B @ 1.5 # doubled tail\nsource A\ntarget S\n")
    arc = parsed.graph.arc(1)
    assert arc.tails == ((parsed.graph.id_of("A"), 2), (parsed.graph.id_of("B"), 1))
    assert parsed.sources == ((parsed.graph.id_of("A"), 0.0),)


def test_serializer_rejects_unsafe_names():
    g = build(("a b",), ())
    with pytest.raises(ValidationError, match="not representable"):
        serialize_hypergraph(g)
    with pytest.raises(ValidationError, match="'<-' is reserved as the arc arrow"):
        serialize_hypergraph(build(["<-"], ()))


def test_serializer_rejects_a_name_ending_in_a_newline():
    # Written out, such a name would split its arc line in two.
    g = build(["a\n", "b"], (Hyperarc(1, ((0, 1),), 1.0),))
    with pytest.raises(ValidationError, match="not representable"):
        serialize_hypergraph(g)


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_float_format_roundtrips_exactly(x):
    assert float(format_float(x)) == x


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=4
    ),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_arc_cost_matches_direct_sum(pairs, length):
    arc = Hyperarc(0, tuple(pairs), length)
    g = build(4, (arc,))
    costs = [0.5, 1.25, 2.0, 3.5]
    expected = length + sum(m * costs[v] for v, m in _distinct_tails(arc.tails))
    assert abs(arc_total_cost(g, 1, costs) - expected) < 1e-12
