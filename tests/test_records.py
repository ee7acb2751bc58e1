"""The five records: constructor parameters and defaults, validation
messages, repr, field equality and, for the frozen three (MetricSignature,
SuperspaceConfig, SuiteSpec), hashing and immutability."""

import inspect
from fractions import Fraction

import pytest

from ternalg import (CheckReport, MetricSignature, StructureConstants3,
                     SuiteSpec, SuperspaceConfig)
from ternalg.order3 import Table


def _sc(dim0=1, dim1=2, f=None, labels0=(), labels1=()):
    if f is None:
        f = Table(dim0, dim0, dim0)
    return StructureConstants3(dim0, dim1, f,
                               Table(dim0, dim1, dim1),
                               Table(dim1, dim1, dim1, dim0), labels0, labels1)


@pytest.mark.parametrize("cls, params", [
    (MetricSignature, ["dimension", "eta"]),
    (SuperspaceConfig, ["metric", "pairing_kappa"]),
    (SuiteSpec, ["suite", "dimension", "seed", "kappa"]),
    (CheckReport, ["check_id", "paper_ref", "status", "residuals",
                   "elapsed_ms", "notes"]),
    (StructureConstants3, ["dim0", "dim1", "f", "R", "Q", "labels0",
                           "labels1"]),
], ids=["MetricSignature", "SuperspaceConfig", "SuiteSpec", "CheckReport",
        "StructureConstants3"])
def test_constructor_parameters(cls, params):
    assert list(inspect.signature(cls).parameters) == params


def test_defaults():
    m = MetricSignature()
    assert (m.dimension, m.eta) == (4, (1, -1, -1, -1))
    c = SuperspaceConfig()
    assert (c.metric, c.pairing_kappa) == (m, Fraction(1, 2))
    s = SuiteSpec("para")
    assert (s.suite, s.dimension, s.seed, s.kappa) \
        == ("para", 4, 0, Fraction(1, 2))
    r = CheckReport("id", "ref")
    assert (r.check_id, r.paper_ref, r.status, r.residuals, r.elapsed_ms,
            r.notes) == ("id", "ref", "pass", [], 0.0, "")
    r.add_residual((0,), "x")
    assert CheckReport("id", "ref").residuals == []  # a fresh list each
    sc = _sc(2, 1)
    assert (sc.labels0, sc.labels1) == (("X0", "X1"), ("Y0",))
    assert _sc(labels0=("E",), labels1=("a", "b")).labels1 == ("a", "b")


@pytest.mark.parametrize("make, message", [
    (lambda: MetricSignature(2, (1,)),
     "eta must have one entry per dimension"),
    (lambda: MetricSignature(2, (1, 2)), "eta entries must be +1 or -1"),
    (lambda: SuiteSpec("bogus"),
     "unknown suite 'bogus'; choose from arith, engine, para, roby, "
     "poincare, order3, colour, superspace, closure, oracle, all"),
    (lambda: _sc(f=Table(1, 1)), "f must have shape (dim0, dim0, dim0)"),
    (lambda: StructureConstants3(1, 1, Table(1, 1, 1), Table(1, 1),
                                 Table(1, 1, 1, 1)),
     "R must have shape (dim0, dim1, dim1)"),
    (lambda: StructureConstants3(1, 1, Table(1, 1, 1), Table(1, 1, 1),
                                 Table(1, 1, 1)),
     "Q must have shape (dim1, dim1, dim1, dim0)"),
    (lambda: _sc(labels0=("a", "b")), "labels0 has 2 labels, expected 1"),
    (lambda: _sc(labels1=("a",)), "labels1 has 1 labels, expected 2"),
], ids=["eta-length", "eta-entries", "suite", "f-shape", "R-shape",
        "Q-shape", "labels0", "labels1"])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_repr():
    assert repr(SuperspaceConfig()) == (
        "SuperspaceConfig(metric=MetricSignature(dimension=4, "
        "eta=(1, -1, -1, -1)), pairing_kappa=Fraction(1, 2))")
    assert repr(SuiteSpec("all", seed=3)) == (
        "SuiteSpec(suite='all', dimension=4, seed=3, kappa=Fraction(1, 2))")
    assert repr(CheckReport("a", "b", notes="n")) == (
        "CheckReport(check_id='a', paper_ref='b', status='pass', "
        "residuals=[], elapsed_ms=0.0, notes='n')")
    assert repr(_sc()) == (
        "StructureConstants3(dim0=1, dim1=2, f={}, R={}, Q={}, "
        "labels0=('X0',), labels1=('Y0', 'Y1'))")


def test_field_equality():
    assert MetricSignature(2, (1, -1)) == MetricSignature.minkowski(2)
    assert MetricSignature(2, (1, -1)) != MetricSignature(2, (1, 1))
    assert MetricSignature(2, (1, -1)) != (2, (1, -1))
    assert SuperspaceConfig(MetricSignature(), Fraction(1, 2)) \
        == SuperspaceConfig()
    assert SuperspaceConfig(pairing_kappa=Fraction(1, 3)) \
        != SuperspaceConfig()
    assert SuiteSpec("all", 3) == SuiteSpec("all", dimension=3)
    assert SuiteSpec("all", 3) != SuiteSpec("all", 3, seed=1)
    # the start time of a ``with`` block is not a field
    timed = CheckReport("a", "b")
    with timed:
        pass
    assert timed == CheckReport("a", "b", elapsed_ms=timed.elapsed_ms)
    assert timed != CheckReport("a", "b", elapsed_ms=timed.elapsed_ms,
                                notes="n")
    assert _sc() == _sc(labels1=("Y0", "Y1"))
    assert _sc() != _sc(labels1=("a", "b"))


@pytest.mark.parametrize("record", [
    MetricSignature(), SuperspaceConfig(), SuiteSpec("all")],
    ids=lambda record: type(record).__name__)
def test_frozen_records_hash_by_value_and_reject_assignment(record):
    twin = type(record)(*(getattr(record, name) for name in
                          inspect.signature(type(record)).parameters))
    assert twin is not record and hash(twin) == hash(record)
    assert len({record, twin}) == 1
    name = next(iter(inspect.signature(type(record)).parameters))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert twin == record


@pytest.mark.parametrize("record", [CheckReport("a", "b"), _sc()],
                         ids=lambda record: type(record).__name__)
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)
