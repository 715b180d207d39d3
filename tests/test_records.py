"""The contract every record of the package keeps: its fields are the public
entries of its instance dict, in declared order; ``==`` holds only within one
class; ``hash`` and ``repr`` read the fields; the record cannot be changed;
and a memo (an entry named with a leading underscore) is no field."""

import copy
import pickle

import pytest

from tsfrac import (
    Add,
    ApproachSide,
    Call,
    ComputePath,
    Const,
    DerivKind,
    DerivResult,
    Div,
    DomainMembership,
    FinitePoints,
    FnOnScale,
    GeometricGrid,
    Interval,
    LimitConfig,
    Mul,
    Neg,
    Order,
    PointClass,
    Pow,
    Sub,
    SymmetricWeights,
    TimeScale,
    UniformGrid,
    Var,
    eval_expr,
    parse_expr,
)
from tsfrac.checks import SuiteReport
from tsfrac.exprlang import _Binary
from tsfrac.integral import Antiderivative
from tsfrac.order import LimitResult

_T = TimeScale([Interval(0.0, 1.0), UniformGrid(1.5, 3.0, 0.5)])

# one record of each of the 19 record classes, with its fields in declared order
RECORDS = [
    (Order(2, 4), ["numerator", "denominator"]),
    (LimitConfig(tol=1e-6, max_samples=10), ["tol", "max_samples"]),
    (LimitResult(1.5, 0.1, True, 3), ["value", "err_est", "converged", "samples_used"]),
    (PointClass(True, False), ["left_dense", "right_dense"]),
    (DomainMembership(False, True), ["in_nabla_domain", "in_delta_domain"]),
    (Interval(-0.0, 2), ["lo", "hi"]),
    (FinitePoints([3, 1, 2.5]), ["values"]),
    (UniformGrid(0, 1.1, 0.25), ["start", "stop", "step"]),
    (GeometricGrid(2, -3, 2, True), ["q", "k_min", "k_max", "include_zero"]),
    (FnOnScale(abs, _T, "abs"), ["eval", "scale", "source"]),
    (
        DerivResult(0.5, ComputePath.DENSE_LIMIT, ApproachSide.BOTH, 1e-9, Order(1, 3), DerivKind.SYMMETRIC, 0.5),
        ["value", "path", "side", "err_est", "order", "kind", "t"],
    ),
    (SymmetricWeights(0.25, 0.75), ["gamma1", "gamma2"]),
    (Const(2.5), ["value"]),
    (Var(), []),
    (Neg(Var()), ["operand"]),
    (_Binary(Var(), Const(1.0)), ["left", "right"]),
    (Call("pow", (Var(), Const(2.0))), ["name", "args"]),
    (Antiderivative(FnOnScale(abs, _T), 0.0, DerivKind.NABLA), ["base", "anchor", "kind"]),
    (SuiteReport("linearity", 8, 0, 0.0, 0, ()), ["suite", "trials", "seed", "max_residual", "failures", "messages"]),
]
_IDS = [type(r).__name__ for r, _ in RECORDS]


def _fields(r) -> dict:
    return {name: v for name, v in vars(r).items() if name[0] != "_"}


def test_every_record_class_is_listed():
    assert len(set(_IDS)) == len(RECORDS) == 19


@pytest.mark.parametrize("record, names", RECORDS, ids=_IDS)
def test_fields_are_the_public_instance_entries_in_declared_order(record, names):
    assert list(_fields(record)) == names
    # only memos, named with a leading underscore, follow the fields
    assert list(vars(record))[: len(names)] == names
    assert all(name[0] == "_" for name in list(vars(record))[len(names):])
    # the constructor takes the fields by name and gives an equal record
    rebuilt = type(record)(**_fields(record))
    assert rebuilt == record and _fields(rebuilt) == _fields(record)


@pytest.mark.parametrize("record, names", RECORDS, ids=_IDS)
def test_equality_holds_within_one_class(record, names):
    twin = object.__new__(type("Twin", (type(record),), {}))  # a subclass, the same fields
    vars(twin).update(_fields(record))
    assert record != twin and twin != record
    assert record.__eq__(twin) is NotImplemented
    assert all(record != other for other, _ in RECORDS if type(other) is not type(record))
    assert record != tuple(_fields(record).values())


@pytest.mark.parametrize("record, names", RECORDS, ids=_IDS)
def test_hash_is_the_hash_of_the_field_values(record, names):
    assert hash(record) == hash(tuple(_fields(record).values()))


@pytest.mark.parametrize("record, names", RECORDS, ids=_IDS)
def test_repr_names_the_class_and_each_field(record, names):
    fields = ", ".join(f"{name}={v!r}" for name, v in _fields(record).items())
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_repr_strings_are_unchanged():
    assert repr(Order(2, 4)) == "Order(numerator=1, denominator=2)"
    # t is a field added since: the member the result was computed at
    assert repr(DerivResult(4.125, ComputePath.EXACT_SCATTERED, ApproachSide.LEFT, 0.0, Order(1, 2), DerivKind.NABLA, 3.0)) == (
        "DerivResult(value=4.125, path=<ComputePath.EXACT_SCATTERED: 'exact-scattered'>, "
        "side=<ApproachSide.LEFT: 'left'>, err_est=0.0, order=Order(numerator=1, denominator=2), "
        "kind=<DerivKind.NABLA: 'nabla'>, t=3.0)"
    )
    assert repr(parse_expr("-sin(t)^2 + t*3 - pow(t, 2)/ln(t)")) == (
        "Sub(left=Add(left=Neg(operand=Pow(left=Call(name='sin', args=(Var(),)), right=Const(value=2.0))), "
        "right=Mul(left=Var(), right=Const(value=3.0))), "
        "right=Div(left=Call(name='pow', args=(Var(), Const(value=2.0))), right=Call(name='ln', args=(Var(),))))"
    )


@pytest.mark.parametrize("record, names", RECORDS, ids=_IDS)
def test_a_record_cannot_be_changed(record, names):
    before = dict(vars(record))
    for name in [*names, "other"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert vars(record) == before


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=_IDS)
def test_pickle_round_trip(record):
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record) and again == record
    if isinstance(record, Antiderivative):  # its memo is a cache, rebuilt empty with a lock of its own
        assert again._lock is not record._lock and (again._known, again._keys) == ({again.anchor: 0.0}, [again.anchor])
    else:
        assert vars(again) == vars(record)


def test_an_antiderivative_copy_has_its_own_lock_and_memo():
    F = Antiderivative(FnOnScale(abs, _T), 0.0, DerivKind.DELTA)
    values = [F.eval(t) for t in (0.5, 2.5, 1.0)]
    for make in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
        again = make(F)
        assert again == F and again._lock is not F._lock
        assert (again._known, again._keys) == ({0.0: 0.0}, [0.0])
        assert [again.eval(t) for t in (0.5, 2.5, 1.0)] == values
        assert len(F._keys) == 4 and len(again._keys) == 4


def test_an_antiderivative_of_an_expression_pickles():
    F = Antiderivative(FnOnScale.from_expression("2*cos(t/3) + t^2", _T), 0.0, DerivKind.NABLA)
    points = (0.5, 2.5, 1.0)
    values = [F.eval(t).hex() for t in points]
    again = pickle.loads(pickle.dumps(F))
    assert (again.base.source, again.anchor, again.kind) == (F.base.source, F.anchor, F.kind)
    assert [again.eval(t).hex() for t in points] == values
    # as_fn's eval is F's own bound eval, not eval_expr's: it pickles by the callable
    G = F.as_fn()
    back = pickle.loads(pickle.dumps(G))
    assert back.eval.__func__ is Antiderivative.eval and isinstance(back.eval.__self__, Antiderivative)
    assert back.scale == _T and [back.eval(t).hex() for t in points] == values


def test_the_binary_nodes_compare_only_within_their_class():
    a, b = Var(), Const(1.0)
    nodes = [cls(a, b) for cls in (Add, Sub, Mul, Div, Pow)]
    assert [[m == n for n in nodes] for m in nodes] == [[m is n for n in nodes] for m in nodes]


def test_a_memo_changes_no_comparison_hash_repr_or_pickle():
    e, fresh = parse_expr("t^2 + sin(t)"), parse_expr("t^2 + sin(t)")
    before = (hash(e), repr(e), pickle.dumps(e))
    assert eval_expr(e, 2.0) == 4.0 + eval_expr(parse_expr("sin(t)"), 2.0)
    assert "_code" in vars(e) and "_code" not in vars(fresh)
    assert e == fresh and fresh == e
    assert (hash(e), repr(e), pickle.dumps(e)) == before
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and "_code" not in vars(copy)
