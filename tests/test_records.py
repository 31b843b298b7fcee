"""The frozen value classes behave as the frozen dataclasses they replaced.

Each public value class is checked against a ``dataclasses.make_dataclass``
twin with the same name and fields: the same ``repr``, ``==`` and ``!=``,
equal hashes for equal values (or the same ``TypeError`` when a field is a
dict), and ``AttributeError`` on assignment and deletion. Instances also
survive a pickle round trip and ``copy.copy``/``copy.deepcopy``, which a
slotted class whose ``__setattr__`` refuses every field does not by itself.
The tree classes compare, hash, print, pickle and copy at a depth the
interpreter's recursion limit would not allow.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys

import pytest

from hyperpaths import (
    INF,
    DerivationTree,
    GrammarHypergraphMap,
    Hyperarc,
    HyperpathTree,
    InsideResult,
    OutsideResult,
    ParsedHypergraph,
    Production,
    PruneResult,
    Query,
    ReachResult,
    ReduceResult,
    RestrictResult,
    RhsTree,
    Wrtg,
    build,
)

GRAPH = build(["a", "b"], [Hyperarc(1, ((0, 1),), 1.0)])
OTHER_GRAPH = build(["a", "c"], [Hyperarc(1, ((0, 2),), 1.0)])
LEAF = HyperpathTree(0, 0, (), 0.0)
TREE = HyperpathTree(1, 1, (LEAF, LEAF), 1.0)
RHS = RhsTree("f", (RhsTree("A"), RhsTree("b", (RhsTree("c"),))))
PRODUCTION = Production("A", ("b",), 0.5)

# Per class: the fields of one instance, and of one that differs in one field.
CASES = {
    Hyperarc: ((1, ((0, 2),), 1.5), (1, ((0, 2),), 2.5)),
    Query: ((((0, 0.0),), 1), (((0, 0.5),), 1)),
    RestrictResult: ((GRAPH, {0: 0, 1: 1}, {1: 1}), (OTHER_GRAPH, {0: 0, 1: 1}, {1: 1})),
    InsideResult: (((0.0, 1.0), (0, 1), 1), ((0.0, 1.0), (0, 1), 2)),
    HyperpathTree: ((1, 1, (LEAF, LEAF), 1.0), (1, 1, (LEAF, TREE), 1.0)),
    OutsideResult: (((1.0, 0.0), (1, 0), 1, (INF, 1.0)), ((1.0, 0.0), (1, 0), 0, (INF, 1.0))),
    PruneResult: (
        ((1.0, 1.0), (0.0, 1.0), (True, True), (False, True), GRAPH, {0: 0}, {1: 1}),
        ((1.0, 1.0), (0.0, 1.0), (True, True), (False, False), GRAPH, {0: 0}, {1: 1}),
    ),
    ReachResult: (((True, False), 3), ((True, True), 3)),
    ReduceResult: (
        (GRAPH, {0: 0}, {1: 1}, ((0, 0.0),), 1),
        (GRAPH, {0: 0}, {1: 1}, ((0, 0.0),), None),
    ),
    ParsedHypergraph: ((GRAPH, ((0, 0.0),), 1), (GRAPH, ((0, 0.0),), None)),
    RhsTree: (("f", RHS.children), ("f", RHS.children[:1])),
    Production: (("S", RHS, 0.25), ("S", ("A", "b"), 0.25)),
    Wrtg: (
        (frozenset({"b"}), ("A",), "A", (PRODUCTION,)),
        (frozenset({"b"}), ("A",), "A", (PRODUCTION, PRODUCTION)),
    ),
    GrammarHypergraphMap: (({1: 1}, 1), ({1: 1}, None)),
    DerivationTree: ((1, (DerivationTree(2, ()),)), (1, (DerivationTree(3, ()),))),
}
TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True, slots=True)
    for cls in CASES
}


def twin(value):
    """``value`` with every value-class instance in it, at any depth inside
    tuples and instances, replaced by its dataclass twin."""
    if isinstance(value, tuple):
        return tuple(twin(v) for v in value)
    if type(value) in TWINS:
        return TWINS[type(value)](*(twin(getattr(value, f)) for f in value.__slots__))
    return value


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_class_matches_its_dataclass_twin(cls):
    fields, other_fields = CASES[cls]
    a, same, other = cls(*fields), cls(*fields), cls(*other_fields)
    ta, tsame, tother = twin(a), twin(same), twin(other)
    assert cls(**dict(zip(cls.__slots__, fields))) == a

    assert repr(a) == repr(ta) and repr(other) == repr(tother)
    assert (a == same, a != same, a == other, a != other) == (True, False, False, True)
    assert (ta == tsame, ta != tsame, ta == tother, ta != tother) == (True, False, False, True)
    assert a != ta and a != fields
    assert hash_or_error(a) == hash_or_error(same)
    assert type(hash_or_error(a)) is type(hash_or_error(ta))

    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            setattr(ta, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = None
    assert a == same and repr(a) == repr(ta)

    for restored in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(restored) is cls and restored == a and repr(restored) == repr(a)
        assert hash_or_error(restored) == hash_or_error(a)


def test_constructor_rejects_missing_and_unknown_fields():
    with pytest.raises(TypeError):
        ReachResult((True,))
    with pytest.raises(TypeError):
        ReachResult((True,), 1, 2)
    with pytest.raises(TypeError):
        ReachResult((True,), touches=1, extra=2)
    with pytest.raises(TypeError):
        ReachResult((True,), reached=(True,))
    assert ReachResult(touches=1, reached=(True,)) == ReachResult((True,), 1)


DEPTH = 5000
# Per tree class: a leaf from a value, a node over one child, and the text
# of a node's repr before its child, of a leaf's from its value, and after.
DEEP = {
    RhsTree: (
        lambda x: RhsTree(x),
        lambda child: RhsTree("f", (child,)),
        ("RhsTree(label='f', children=(", "RhsTree(label={!r}, children=())", ",))"),
    ),
    HyperpathTree: (
        lambda x: HyperpathTree(0, 0, (), x),
        lambda child: HyperpathTree(1, 1, (child,), 1.0),
        (
            "HyperpathTree(arc=1, vertex=1, children=(",
            "HyperpathTree(arc=0, vertex=0, children=(), cost={!r})",
            ",), cost=1.0)",
        ),
    ),
    DerivationTree: (
        lambda x: DerivationTree(x, ()),
        lambda child: DerivationTree(1, (child,)),
        (
            "DerivationTree(production=1, children=(",
            "DerivationTree(production={!r}, children=())",
            ",))",
        ),
    ),
}
LEAF_VALUES = {RhsTree: ("a", "b"), HyperpathTree: (0.0, 2.0), DerivationTree: (2, 3)}


@pytest.mark.parametrize("cls", DEEP, ids=lambda cls: cls.__name__)
def test_deep_trees_compare_hash_and_print(cls):
    assert DEPTH > sys.getrecursionlimit()
    make_leaf, make_node, (opening, leaf_text, closing) = DEEP[cls]
    x, y = LEAF_VALUES[cls]

    def chain(depth, leaf):
        node = make_leaf(leaf)
        for _ in range(depth):
            node = make_node(node)
        return node

    a, b = chain(DEPTH, x), chain(DEPTH, x)
    assert a == b and not a != b and hash(a) == hash(b)
    for restored in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(restored) is cls and restored == a
    assert repr(a) == opening * DEPTH + leaf_text.format(x) + closing * DEPTH
    assert a != chain(DEPTH, y) and a != chain(DEPTH - 1, x)
