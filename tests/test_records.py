"""The public records against ``dataclasses`` twins: each record behaves as
the frozen dataclass with its fields would, on hypothesis-drawn values.

A twin is ``dataclasses.make_dataclass(..., frozen=True)`` with the record's
name, fields and defaults (``eq=False`` for ``TwoQubitState``, which
compares by identity). The records compare with it on ``repr`` text,
``==`` and ``hash``, the messages of assignment and deletion, copies and
pickles, ``__match_args__`` and the constructor's parameters.
"""

import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsep import (
    BellDiagonalState,
    Classification,
    ConditionalEntropyValue,
    CriticalityReport,
    GridCell,
    PhysicalityCheck,
    RegionGrid,
    Spectrum,
    TwoQubitState,
)

ANY = object  # a twin's field type: dataclasses neither checks nor converts it


def _two_qubit_post_init(self):
    # the twin keeps what TwoQubitState's checks make of its matrix
    state = TwoQubitState(self.matrix)
    object.__setattr__(self, "matrix", state.matrix)
    object.__setattr__(self, "spectrum", state.spectrum)


floats = st.floats(allow_nan=True, allow_infinity=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
pairs = st.none() | st.tuples(floats, floats)
classifications = st.builds(Classification, st.sampled_from(["separable", "entangled", "boundary"]),
                            st.sampled_from(["ppt", "ar-asymptotic", "ar-scan"]), floats,
                            st.none() | floats)
cells = st.builds(GridCell, finite, finite, finite, st.booleans(), st.none() | classifications)
axes = st.lists(finite, max_size=3).map(tuple)
densities = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
    lambda w: np.diag(np.array(w) / sum(w)).astype(np.complex128))

# record: (twin fields, twin options, a strategy of constructor arguments)
RECORDS = {
    Spectrum: ([("values", ANY), ("stochastic", ANY)], {},
               st.tuples(st.lists(floats, min_size=1, max_size=4).map(tuple), st.booleans())),
    BellDiagonalState: ([("x", ANY), ("y", ANY), ("z", ANY)], {},
                        st.tuples(finite, finite, finite)),
    PhysicalityCheck: ([("ok", ANY), ("violations", ANY)], {},
                       st.tuples(st.booleans(), st.lists(st.text(max_size=8), max_size=2).map(tuple))),
    TwoQubitState: ([("matrix", ANY), ("spectrum", ANY, dataclasses.field(init=False))],
                    {"eq": False, "namespace": {"__post_init__": _two_qubit_post_init}},
                    st.tuples(densities)),
    ConditionalEntropyValue: ([("value", ANY), ("q", ANY), ("direction", ANY, "B|A")], {},
                              st.tuples(floats, finite, st.sampled_from(["B|A", "A|B"]))),
    Classification: ([("verdict", ANY), ("criterion", ANY), ("witness", ANY),
                      ("witness_q", ANY, None)], {},
                     classifications.map(lambda c: (c.verdict, c.criterion, c.witness, c.witness_q))),
    GridCell: ([("x", ANY), ("y", ANY), ("z", ANY), ("physical", ANY), ("classification", ANY)], {},
               cells.map(lambda c: (c.x, c.y, c.z, c.physical, c.classification))),
    RegionGrid: ([("xs", ANY), ("ys", ANY), ("zs", ANY), ("cells", ANY)], {},
                 st.tuples(axes, axes, axes, st.lists(cells, max_size=2).map(tuple))),
    CriticalityReport: ([("q_inflexion", ANY), ("eta", ANY), ("bracket", ANY),
                         ("d2_at_bracket", ANY), ("vertex", ANY, False)], {},
                        st.tuples(st.none() | floats, floats, pairs, pairs, st.booleans())),
}
IDS = [record.__name__ for record in RECORDS]


def _twin(record):
    fields, options, _ = RECORDS[record]
    return dataclasses.make_dataclass(record.__name__, fields, frozen=True, **options)


def _error(action) -> str:
    with pytest.raises(AttributeError) as failure:
        action()
    return str(failure.value)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_frozen_dataclass_twin(record, data):
    twin = _twin(record)
    strategy = RECORDS[record][2]
    args, other = data.draw(strategy), data.draw(strategy)
    r, t = record(*args), twin(*args)
    assert repr(r) == repr(t)
    if record is TwoQubitState:
        assert r != record(*args) and t != twin(*args) and r == r
        assert hash(r) == object.__hash__(r)
    else:
        assert (r == record(*args)) == (t == twin(*args)) is True
        assert (r == record(*other)) == (t == twin(*other))
        assert hash(r) == hash(t) == hash(record(*args))
    assert r != args and (r == args) == (t == args) is False
    # another class never compares equal, a subclass or the twin itself. A
    # subclass keeps its base's fields, with no __slots__ or an empty one.
    sub, twin_sub = (type(record.__name__, (cls,), {}) for cls in (record, twin))
    assert (r == sub(*args)) == (t == twin_sub(*args)) is False
    assert r != t
    slotted = type(record.__name__, (record,), {"__slots__": ()})
    for made in (sub, slotted):
        s, s_other, t_sub = made(*args), made(*other), twin_sub(*args)
        assert repr(s) == repr(t_sub)
        if record is not TwoQubitState:
            assert (s == made(*args)) == (t_sub == twin_sub(*args)) is True
            assert (s == s_other) == (t_sub == twin_sub(*other))
            assert hash(s) == hash(t_sub) == hash(r)
    for name in [*record.__slots__, "extra"]:
        assert _error(lambda: setattr(r, name, 0)) == _error(lambda: setattr(t, name, 0))
        assert _error(lambda: delattr(r, name)) == _error(lambda: delattr(t, name))
        assert _error(lambda: setattr(r, name, 0)) == f"cannot assign to field {name!r}"
        assert _error(lambda: delattr(r, name)) == f"cannot delete field {name!r}"
    for made, twin_made in ((copy.copy(r), copy.copy(t)), (copy.deepcopy(r), copy.deepcopy(t))):
        assert type(made) is record
        assert repr(made) == repr(twin_made) == repr(r)
        assert (made == r) == (twin_made == t)
    # a twin made here does not pickle; a dataclass's pickle equals it as
    # the pickle of its fields' tuple equals that tuple (a nan does not)
    made = pickle.loads(pickle.dumps(r))
    fields = tuple(getattr(r, name) for name in record.__slots__)
    assert type(made) is record and repr(made) == repr(r)
    assert (made == r) is (record is not TwoQubitState
                           and pickle.loads(pickle.dumps(fields)) == fields)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_a_record_has_its_twins_constructor_and_match_args(record):
    twin = _twin(record)

    def parameters(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    assert parameters(record) == parameters(twin)
    assert record.__match_args__ == twin.__match_args__


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_keyword_construction_and_defaults(data):
    for record in RECORDS:
        args = data.draw(RECORDS[record][2])
        keywords = dict(zip(record.__match_args__, args))
        assert repr(record(**keywords)) == repr(record(*args)) == repr(_twin(record)(**keywords))
    assert Classification("entangled", "ppt", 0.5).witness_q is None
    assert ConditionalEntropyValue(0.1, 2.0).direction == "B|A"
    assert CriticalityReport(None, 0.0, None, None).vertex is False


def test_the_match_statement_takes_the_fields_in_order():
    match BellDiagonalState(0.5, -0.25, 0.0):
        case BellDiagonalState(x, y, z=0.0):
            assert (x, y) == (0.5, -0.25)
        case _:
            pytest.fail("no match")
    match Classification("boundary", "ar-scan", -0.0, math.inf):
        case Classification(verdict, criterion, witness_q=q):
            assert (verdict, criterion, q) == ("boundary", "ar-scan", math.inf)
        case _:
            pytest.fail("no match")
