"""The value types keep the contract of frozen dataclasses.

``values.value_type`` builds equality, hashing, ``repr``, pickling and
immutability from each class's ``__slots__``; one parametrized test checks
every class against the behaviour of the frozen dataclass it replaced, and
another checks that the unchecked bulk maker ``_make_all`` builds the same
values as the constructor.  The real check that the value types validate with reads
-0.0 as 0.0; the exact reader ``as_fraction`` gives the ``Fraction`` a real
equals, or refuses it.
"""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest

from deltamachine.band import ElasticExperiment, OutcomePair
from deltamachine.regimes import Regime, RegimeVerdict, Witness, WitnessKind
from deltamachine.scattering import ScatteringAmplitudes, ScatteringConfig
from deltamachine.values import as_fraction, as_real
from deltamachine.spheres import (
    ElectricState,
    KMeasurement,
    ProbabilityTable,
    ProbabilityTableRow,
    probability_table,
)

_ROW = ProbabilityTableRow(
    k=1, entries=((ElectricState(0, 1), Fraction(0)), (ElectricState(1, 0), Fraction(1)))
)
_ROW_REPR = (
    "ProbabilityTableRow(k=1, entries=((ElectricState(k_plus=0, k_minus=1), Fraction(0, 1)), "
    "(ElectricState(k_plus=1, k_minus=0), Fraction(1, 1))))"
)
_WITNESS = Witness(kind=WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION, state=ElectricState(1, 3))
_WITNESS_REPR = (
    "Witness(kind=<WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION: 'NonQuantumZeroTransmission'>, "
    "state=ElectricState(k_plus=1, k_minus=3))"
)

#: Each class: an instance built with keywords, its fields in order, and its repr.
CASES = {
    "ElectricState": (
        ElectricState(k_plus=1, k_minus=2),
        (1, 2),
        "ElectricState(k_plus=1, k_minus=2)",
    ),
    "KMeasurement": (KMeasurement(k=3), (3,), "KMeasurement(k=3)"),
    "ProbabilityTableRow": (_ROW, (1, _ROW.entries), _ROW_REPR),
    "ProbabilityTable": (
        ProbabilityTable(K=1, rows=(_ROW,)),
        (1, (_ROW,)),
        f"ProbabilityTable(K=1, rows=({_ROW_REPR},))",
    ),
    "Witness": (_WITNESS, (WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION, ElectricState(1, 3)), _WITNESS_REPR),
    "RegimeVerdict": (
        RegimeVerdict(verdict=Regime.INTERMEDIATE, witnesses=(_WITNESS,), note="n"),
        (Regime.INTERMEDIATE, (_WITNESS,), "n"),
        f"RegimeVerdict(verdict=<Regime.INTERMEDIATE: 'Intermediate'>, witnesses=({_WITNESS_REPR},), note='n')",
    ),
    "ScatteringConfig": (ScatteringConfig(coupling=2.5), (2.5,), "ScatteringConfig(coupling=2.5)"),
    "ScatteringAmplitudes": (
        ScatteringAmplitudes(transmission=1j, reflection=-1 + 0j, energy=1.0),
        (1j, -1 + 0j, 1.0),
        "ScatteringAmplitudes(transmission=1j, reflection=(-1+0j), energy=1.0)",
    ),
    "OutcomePair": (OutcomePair(p_plus=0.75, p_minus=0.25), (0.75, 0.25), "OutcomePair(p_plus=0.75, p_minus=0.25)"),
    "ElasticExperiment": (
        ElasticExperiment(theta=1.0, epsilon=0.5, projection=0.5),
        (1.0, 0.5, 0.5),
        "ElasticExperiment(theta=1.0, epsilon=0.5, projection=0.5)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_frozen_dataclass_contract(name):
    value, fields, text = CASES[name]
    cls = type(value)
    assert cls.__name__ == name

    # Equality and hashing are those of the tuple of the fields.
    same = cls(*fields)
    assert same == value and not same != value and same is not value
    assert hash(value) == hash(fields) == hash(same)
    assert value != fields and value.__eq__(fields) is NotImplemented
    assert {value, same} == {value}
    assert repr(value) == text

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(value, protocol))
        assert type(clone) is cls and clone == value
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value

    for field in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = None
    assert tuple(getattr(value, field) for field in cls.__slots__) == fields
    assert cls.__match_args__ == tuple(cls.__slots__)


@pytest.mark.parametrize("name", CASES)
def test_unchecked_maker_builds_the_same_value(name):
    value, fields, text = CASES[name]
    cls = type(value)
    made = cls._make_all(3, *([field] * 3 for field in fields))
    assert type(made) is tuple and len(made) == 3
    assert len({id(instance) for instance in made}) == 3
    for instance in made:
        assert type(instance) is cls and instance is not value
        assert instance == value and value == instance and not instance != value
        assert hash(instance) == hash(value) and repr(instance) == text
        assert tuple(getattr(instance, field) for field in cls.__slots__) == fields
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(instance, protocol))
            assert type(clone) is cls and clone == value
            assert pickle.dumps(instance, protocol) == pickle.dumps(value, protocol)
        for field in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(instance, field, None)
            with pytest.raises(AttributeError):
                delattr(instance, field)
        with pytest.raises(AttributeError):
            instance.unknown = None
    # An endless column, and no instance at all.
    assert cls._make_all(2, *map(repeat, fields)) == (value, value)
    assert cls._make_all(0, *([] for _ in fields)) == ()
    # One column too many or too few.
    with pytest.raises(ValueError):
        cls._make_all(1, *([field] for field in fields), [None])
    with pytest.raises(ValueError):
        cls._make_all(1, *([field] for field in fields[1:]))


def test_defaults():
    assert Witness(WitnessKind.ALL_DETERMINISTIC).state is None
    assert RegimeVerdict(Regime.QUANTUM, ()).note is None
    assert ScatteringConfig().coupling == 1.0
    assert ScatteringConfig() == ScatteringConfig(1.0)
    assert ElasticExperiment(1.0, 0.5).projection is None
    assert ElasticExperiment(1.0, 0.5) == ElasticExperiment(1.0, 0.5, None)
    assert ElasticExperiment(1.0, 0.5) != ElasticExperiment(1.0, 0.5, projection=0.5)


def test_tables_compare_by_value():
    assert probability_table(3) == probability_table(3)
    assert hash(probability_table(3)) == hash(probability_table(3))
    assert probability_table(3) != probability_table(4)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: ElectricState(-1, 2), ValueError, "nonnegative"),
        (lambda: ElectricState(2, -1), ValueError, "nonnegative"),
        (lambda: ElectricState(0, 0), ValueError, "at least one sphere"),
        (lambda: ElectricState(True, 1), TypeError, "not bool"),
        (lambda: ElectricState("1", 1), TypeError, "must be an integer"),
        (lambda: ElectricState(1.0, 1), TypeError, "must be an integer"),
        (lambda: KMeasurement(0), ValueError, "at least 1"),
        (lambda: KMeasurement(True), TypeError, "not bool"),
        (lambda: KMeasurement("2"), TypeError, "must be an integer"),
        (lambda: ScatteringConfig(0.0), ValueError, "positive finite"),
        (lambda: ScatteringConfig(float("inf")), ValueError, "positive finite"),
        (lambda: ScatteringConfig(1e-200), ValueError, "out of range"),
        (lambda: ScatteringConfig(True), TypeError, "not bool"),
        (lambda: ScatteringConfig("1"), TypeError, "not str"),
        # ElasticExperiment checks the types of theta and epsilon, then their
        # ranges, then the type and the range of projection.
        (lambda: ElasticExperiment("x", 2.0), TypeError, "^theta must be a real number, not str$"),
        (lambda: ElasticExperiment(4.0, b"x"), TypeError, "^epsilon must be a real number, not bytes$"),
        (lambda: ElasticExperiment(4.0, 2.0, projection="x"), ValueError, r"^theta must lie in \[0, pi\]$"),
        (lambda: ElasticExperiment(1.0, 2.0, projection="x"), ValueError, r"^epsilon must lie in \[0, 1\]$"),
        (lambda: ElasticExperiment(1.0, 0.5, projection=True), TypeError, "^projection must be a real number, not bool$"),
        (lambda: ElasticExperiment(1.0, 0.5, projection=2.0), ValueError, r"^projection must lie in \[-1, 1\]$"),
    ],
)
def test_construction_validates(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize(
    "value",
    [
        -0.0,
        np.float64(-0.0),
        np.float32(-0.0),
        np.array(-0.0),
        np.float16(-0.0),
        np.longdouble(-0.0),
        np.array(-0.0, dtype=object),
        Decimal("-0"),
    ],
    ids=["float", "f64", "f32", "0-d", "f16", "longdouble", "0-d-object", "decimal"],
)
def test_as_real_reads_negative_zero_as_zero(value):
    result = as_real(value, "x")
    assert type(result) is float and result.hex() == "0x0.0p+0"


@pytest.mark.parametrize(
    "value, name",
    [(None, "NoneType"), ([1.0], "list"), (1j, "complex"), (np.complex64(1), "complex64"), (np.complex128(1), "complex128")],
)
def test_as_real_names_what_float_refuses(value, name):
    # A complex number is refused before float() could drop its imaginary part.
    with pytest.raises(TypeError, match=f"^x must be a real number, not {name}$"):
        as_real(value, "x")


_WIDTHS = [np.float16, np.float32, np.float64, np.longdouble]


@pytest.mark.parametrize(
    "value, expected",
    [
        (3, Fraction(3)),
        (np.int64(-2), Fraction(-2)),
        (Fraction(1, 3), Fraction(1, 3)),
        (0.1, Fraction(3602879701896397, 1 << 55)),
        (Decimal("0.1"), Fraction(1, 10)),
        *[(width("0.1"), Fraction(*width("0.1").as_integer_ratio())) for width in _WIDTHS],
        *[(value, TypeError) for value in (True, np.True_, "1", np.str_("1"), b"1", 1j, None, [1])],
        *[(value, ValueError) for value in (float("inf"), -float("inf"), float("nan"), Decimal("nan"))],
        *[(width(value), ValueError) for width in _WIDTHS for value in ("inf", "-inf", "nan")],
    ],
    ids=lambda v: getattr(v, "__name__", None) or repr(v),
)
def test_as_fraction_reads_a_real_exactly_or_refuses_it(value, expected):
    if isinstance(expected, Fraction):
        result = as_fraction(value, "x")
        assert type(result) is Fraction and result == expected
    else:
        rule = f"a real number, not {type(value).__name__}$" if expected is TypeError else "finite, not "
        with pytest.raises(expected, match="^x must be " + rule):
            as_fraction(value, "x")
