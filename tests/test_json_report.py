"""The one-pass ``--json`` writer against the two-pass oracle."""
import enum
import json
from collections import defaultdict, namedtuple
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from elliptica import cli, dsl, invariants
from elliptica.invariants import ComparisonReport, InvariantReport, LedgerEntry
from elliptica.quillen import WhiteheadNodeL
from elliptica.sullivan import WhiteheadNodeS

from json_oracle import jsonable

Pair = namedtuple("Pair", "left right")


class Level(enum.IntEnum):
    LOW = 2
    HIGH = 10


def _engine_records():
    s = invariants.analysis(dsl.catalog_spec("cpn_sullivan(2)"), None)
    q = invariants.analysis(dsl.catalog_spec("cpn_quillen(2)"), None)
    rep = s.whitehead()
    return [s.report(), *s.ledger().entries, rep, *rep.nodes,
            *q.whitehead().nodes, *q.ledger().entries,
            invariants.compare_models(s.model, q.model, None)]


RECORDS = _engine_records()

texts = st.one_of(st.text(max_size=6),
                  st.sampled_from(["é", "\x00\x1f\n\t\"\\/", "\u2028",
                                   "\U0001f600", "\ud800", "", "10", "2"]))
ints = st.one_of(st.integers(-30, 30), st.integers())
# 1 and "1", 2 and 10 (which sort as "10" < "2"), True and "True" collide
# or reorder once str()'d
keys = st.one_of(ints, texts, st.booleans(), st.none(),
                 st.tuples(st.integers(0, 3), st.integers(0, 3)),
                 st.sampled_from([1, "1", 2, 10, "2", "10", True, "True",
                                  None, "None", (1, 2), "(1, 2)"]))
leaves = st.one_of(
    ints, texts, st.booleans(), st.none(), st.sampled_from(list(Level)),
    st.fractions(), st.floats(), st.sets(st.integers(0, 5), max_size=3),
    st.sampled_from(RECORDS),
    st.builds(InvariantReport, ints, ints, ints, ints, st.booleans(),
              st.booleans()),
    st.builds(WhiteheadNodeS, ints, ints, ints, ints, ints, ints),
    st.builds(WhiteheadNodeL, ints, ints, ints, ints, ints, ints))


def _containers(children):
    tables = st.dictionaries(keys, children, max_size=5)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        tables, tables.map(lambda d: defaultdict(int, d)),
        st.builds(LedgerEntry, texts, st.sampled_from(
            ["verified", "violated", "not-applicable"]),
            st.dictionaries(texts, children, max_size=3)),
        st.builds(ComparisonReport, ints, ints,
                  st.dictionaries(ints, st.tuples(ints, ints), max_size=3),
                  st.dictionaries(ints, st.tuples(ints, ints), max_size=3),
                  st.dictionaries(ints, st.tuples(ints, ints), max_size=3),
                  st.lists(texts, max_size=2).map(tuple)))


payloads = st.recursive(leaves, _containers, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(payloads)
@example({1: "int", "1": "str"})
@example({"1": "str", 1: "int"})
@example({2: Level.LOW, 10: Level.HIGH, "x": [{}, [], ()]})
@example(defaultdict(list, {(1, 2): Pair(Fraction(1, 2), 0.5), None: {3}}))
@example(RECORDS)
def test_the_writer_equals_the_oracle(v):
    report = {"model": "m", "bound": None, "tables": v, "ledger": (),
              "status": "ok"}
    for value in (v, report):
        assert cli._json(value) == json.dumps(jsonable(value), indent=2,
                                              sort_keys=True)
