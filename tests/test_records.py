"""Parameter and result records: read-only fields, the constructor's
positional and keyword forms, the all-positional fast path, validation,
equality, repr and pickling."""

from __future__ import annotations

import copy
import math
import pickle

import pytest

from cpwall.analysis import EquilibriumResult, QuadraticFit, RegimeErrorRow
from cpwall.cli import CurveSpec
from cpwall.constants import PhysicalConstants
from cpwall.errors import ConvergenceError, DomainError, ValidityError
from cpwall.oracle import QuadratureReport
from cpwall.thermal import PotentialBreakdown, ThermalEnvironment, ThermalSeriesTerms
from cpwall.verify import CriterionResult
from cpwall.vacuum import AtomParams

# (record, field names in constructor order, one valid set of values,
# invalid values with the error each raises)
RECORDS = [
    (
        PhysicalConstants,
        ("hbar_c", "k_B", "default_theta"),
        (197.0, 8.6e-5, 50.0),
        [],
    ),
    (
        AtomParams,
        ("k0", "alpha0"),
        (13.1, 3.0e-8),
        [((-1.0, 1.0), DomainError), ((1.0, 0.0), DomainError), ((math.inf, 1.0), DomainError)],
    ),
    (
        ThermalEnvironment,
        ("temperature", "lambda_T", "theta"),
        (300.0, 7.6, 100.0),
        [
            ((0.0, 7.6, 100.0), DomainError),
            ((300.0, math.nan, 100.0), DomainError),
            ((300.0, 7.6, 9.0), DomainError),
        ],
    ),
    (
        ThermalSeriesTerms,
        ("coefficients", "terms_used"),
        ((1.6, -2.2, 3.0), 2),
        [
            (((1.6, math.nan, 3.0), 2), ConvergenceError),
            (((1.6, -2.2, math.inf), 0), ConvergenceError),
        ],
    ),
    (
        PotentialBreakdown,
        ("vacuum", "thermal", "total", "notes"),
        (-2.0, 0.5, -1.5, "x0 = 1"),
        [((-2.0, 0.5, -1.0, ""), DomainError), ((-math.inf, 0.5, -math.inf, ""), DomainError)],
    ),
    (
        CurveSpec,
        ("figure_id", "theta", "points", "x_range"),
        (2, 100.0, 50, (0.1, 3.0)),
        [
            ((4, 100.0, 50, (0.1, 3.0)), DomainError),
            ((2, 100.0, 1, (0.1, 3.0)), DomainError),
            ((2, 100.0, 50, (3.0, 0.1)), DomainError),
            ((1, 100.0, 50, (0.0, 3.0)), DomainError),
        ],
    ),
    (
        CriterionResult,
        ("number", "name", "passed", "measured", "tolerance", "note"),
        (3, "short limit", False, "rel 0.2", "< 0.05", "documented"),
        [],
    ),
    (
        QuadratureReport,
        ("value", "abs_error_estimate", "subdivisions"),
        (1.5, 1e-12, 40),
        [
            ((math.nan, 1e-12, 4), ConvergenceError),
            ((1.0, 0.0, 4), DomainError),
            ((1.0, 1e-12, -1), DomainError),
        ],
    ),
    (
        EquilibriumResult,
        ("z_star_over_lambdaT", "iterations"),
        (0.52, 8),
        [((0.8, 8), DomainError)],
    ),
    (
        QuadraticFit,
        ("coefficients", "rms_residual_relative"),
        ((1.0, -2.0, 3.0), 0.001),
        [(((1.0, -2.0, 3.0), 0.05), ValidityError)],
    ),
    (
        RegimeErrorRow,
        (
            "x0",
            "z_over_lambdaT",
            "err_non_retarded",
            "err_retarded",
            "err_short_leading",
            "err_long_expansion",
            "err_lifshitz",
        ),
        (26.0, 0.13, 2.0, 0.1, math.nan, 0.0, 0.5),
        [],
    ),
]
IDS = [rec[0].__name__ for rec in RECORDS]


@pytest.mark.parametrize("cls, names, values, bad", RECORDS, ids=IDS)
def test_positional_and_keyword_forms_agree(cls, names, values, bad):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    for name, value in zip(names, values):
        got = getattr(by_keyword, name)
        assert got is value or got == value


@pytest.mark.parametrize("cls, names, values, bad", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, names, values, bad):
    rec = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert not hasattr(rec, "__dict__")
    assert [getattr(rec, name) for name in names] == [getattr(cls(*values), n) for n in names]


@pytest.mark.parametrize("cls, names, values, bad", RECORDS, ids=IDS)
def test_bad_input_raises(cls, names, values, bad):
    for args, exc in bad:
        with pytest.raises(exc):
            cls(*args)
        with pytest.raises(exc):
            cls(**dict(zip(names, args)))


@pytest.mark.parametrize("cls, names, values, bad", RECORDS, ids=IDS)
def test_equality_repr_hash_and_pickle(cls, names, values, bad):
    rec = cls(*values)
    assert repr(rec) == (
        f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    )
    assert rec == cls(*values) and hash(rec) == hash(cls(*values))
    assert rec != values and rec != object()
    # repr, not ==: a NaN field comes back as another NaN object
    for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(twin) is cls and repr(twin) == repr(rec)


@pytest.mark.parametrize("cls, names, values, bad", RECORDS, ids=IDS)
def test_binder_refuses_bad_calls(cls, names, values, bad):
    name = cls.__name__
    by_name = dict(zip(names, values))
    with pytest.raises(TypeError, match=f"{name} takes {len(names)} fields"):
        cls(*values, values[0])
    # PhysicalConstants has a default for every field, so none can be missing
    for missing in [n for n in names if n not in cls._defaults]:
        with pytest.raises(TypeError, match=f"{name} is missing field '{missing}'"):
            cls(**{n: v for n, v in by_name.items() if n != missing})
    with pytest.raises(TypeError, match=f"{name} has no field 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=f"{name} got field '{names[0]}' twice"):
        cls(*values[:1], **by_name)


@pytest.mark.parametrize("cls, names, values, bad", RECORDS, ids=IDS)
def test_make_is_the_constructor_by_position(cls, names, values, bad):
    # one value per field by position skips the binder and sets the slots
    # directly, the form records built per point take
    rec = cls(*values)
    assert type(rec) is cls and rec == cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(rec, name) is value
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    assert not hasattr(rec, "__dict__")
    twin = pickle.loads(pickle.dumps(rec))
    assert type(twin) is cls and repr(twin) == repr(rec)
    # _check still runs on the fast path
    for args, exc in bad:
        with pytest.raises(exc):
            cls(*args)
    # one value too many is refused; one short goes to the binder, where the
    # last field comes from _defaults or is missing
    name = cls.__name__
    with pytest.raises(TypeError, match=f"{name} takes {len(names)} fields, got"):
        cls(*values, values[0])
    last = names[-1]
    if last in cls._defaults:
        assert cls(*values[:-1]) == cls(*values[:-1], cls._defaults[last])
    else:
        with pytest.raises(TypeError, match=f"{name} is missing field '{last}'"):
            cls(*values[:-1])


def test_records_differ_by_field():
    assert AtomParams(1.0, 2.0) != AtomParams(1.0, 3.0)
    assert CriterionResult(1, "a", True, "m", "t") == CriterionResult(1, "a", True, "m", "t", "")
    assert PhysicalConstants() == PhysicalConstants(197.3269804, 8.617333262e-5, 100.0)


def test_for_figure_and_for_atom_build_records():
    spec = CurveSpec.for_figure(3, 100.0, points=20)
    assert spec == CurveSpec(3, 100.0, 20, (0.0, 1.5))
    assert spec.columns[0] == "z_over_lambdaT"
    atom = AtomParams(13.1, 3.0e-8)
    env = ThermalEnvironment.for_atom(atom, 300.0)
    assert env.theta == atom.k0 * env.lambda_T
