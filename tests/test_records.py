"""Every record in cogecon is a frozen, slotted `record` with the dataclass signature."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import cogecon
from cogecon.config import default_config
from cogecon.consumption import CawfCurves
from cogecon.data_value import InfoEnsemble, SourceDist
from cogecon.records import record
from cogecon.rng import RngSpec
from cogecon.wealth import FirmPolicy, drift_diffusion, equilibrium_prices
import references


def record_classes() -> list[type]:
    """Every dataclass defined in a cogecon module, so a new record cannot be missed,
    and in the tests' reference forms."""
    found = []
    modules = [f"cogecon.{info.name}" for info in pkgutil.iter_modules(cogecon.__path__)]
    for module in map(importlib.import_module, [*modules, "references"]):
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    return sorted(found, key=lambda cls: cls.__qualname__)


CFG = default_config()
LAW = drift_diffusion(CFG.wealth_params())

# One valid instance of each record, by class name.
EXAMPLES = {
    "_Key": lambda: cogecon.config._Key(1.0, "help"),
    "ScenarioConfig": lambda: CFG,
    "ShrinkageParams": CFG.shrinkage_params,
    "CawfParams": CFG.cawf_params,
    "CawfCurves": lambda: CawfCurves(*[np.ones(3)] * 4, 1, 2),
    "ComboReport": lambda: cogecon.validate.ComboReport("x", LAW, 1e-5, 1e-3, 1e-3, 0.02),
    "RetentionParams": CFG.retention_params,
    "CognitionParams": CFG.cognition_params,
    "SeriesTable": lambda: cogecon.figures.SeriesTable("t", ("a",), np.ones((2, 1)), {}),
    "Grid1D": lambda: cogecon.kfe.Grid1D(-1.0, 1.0, 5),
    "TaxEconomy": CFG.tax_economy,
    "OuProcessSpec": lambda: CFG.cawf_params().ou,
    "SourceDist": lambda: SourceDist.gaussian(2.0),
    "DirectionVector": lambda: references.DirectionVector(0.6, 0.0, 0.8),
    "InfoEnsemble": lambda: InfoEnsemble((SourceDist.uniform(2.0), SourceDist.gaussian(1.0)),
                                         4.0, 0.5, synergy={(0, 1): 0.2}, antagonism={}),
    "EconomyParams": CFG.wealth_params,
    "FirmPolicy": lambda: FirmPolicy(5.0, 2.0, 0.3, 1.5),
    "ResetLaw": lambda: LAW,
    "DensityStats": lambda: cogecon.density_stats(cogecon.stationary_wealth_density(LAW)),
    "EquilibriumPrices": lambda: equilibrium_prices(CFG.equilibrium_params()),
    "PiecewiseExpDensity": lambda: cogecon.stationary_wealth_density(LAW),
    "RngSpec": lambda: RngSpec(42, 7),
}

_SCALARS = (bool, int, float, str, type, type(None))


def _plain(value) -> bool:
    """A scalar, or a record of plain values: equality and hash are defined."""
    if dataclasses.is_dataclass(value):
        return all(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    return isinstance(value, _SCALARS)


def test_every_record_has_an_example():
    assert sorted(cls.__name__ for cls in record_classes()) == sorted(EXAMPLES)


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__qualname__)
def test_record_is_frozen_slotted_with_the_dataclass_signature(cls):
    obj = EXAMPLES[cls.__name__]()
    assert type(obj) is cls
    assert not hasattr(obj, "__dict__")
    first = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, first, getattr(obj, first))

    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    init_fields = [f for f in dataclasses.fields(cls) if f.init]
    assert [p.name for p in params] == [f.name for f in init_fields]
    for p, f in zip(params, init_fields):
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        if f.default is not dataclasses.MISSING:
            assert p.default is f.default
        elif f.default_factory is not dataclasses.MISSING:
            assert repr(p.default) == "<factory>"
        else:
            assert p.default is inspect.Parameter.empty
    if cls.__doc__.startswith(f"{cls.__name__}("):
        assert cls.__doc__ == cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")

    if _plain(obj):
        copy = dataclasses.replace(obj)
        assert copy == obj and copy is not obj
        assert hash(copy) == hash(obj)
        assert repr(copy) == repr(obj)

    required = {f.name: getattr(obj, f.name) for f in init_fields
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    for f in init_fields:
        if f.default_factory is not dataclasses.MISSING:
            a, b = cls(**required), cls(**required)
            assert getattr(a, f.name) == f.default_factory()
            assert getattr(a, f.name) is not getattr(b, f.name)


def test_scalar_records_are_among_the_plain_ones():
    for name in ("EconomyParams", "ResetLaw", "PiecewiseExpDensity", "DensityStats", "RngSpec"):
        assert _plain(EXAMPLES[name]())


class _Other:
    """A value equal to nothing else, put into one field of a copy."""

    def __repr__(self) -> str:
        return "<other>"


def _outcome(call):
    """What call returns, or the type and message of what it raises."""
    try:
        return "returns", call()
    except Exception as exc:
        return "raises", type(exc), str(exc)


def _twin(cls: type) -> type:
    """A plain frozen, slotted dataclass with cls's name and fields, every one in __init__."""
    spec = [(f.name, f.type, dataclasses.field(repr=f.repr, hash=f.hash, compare=f.compare))
            for f in dataclasses.fields(cls)]
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True, slots=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def _with(obj, name: str, value):
    """A copy of obj with one field set behind its frozen __setattr__."""
    changed = copy.copy(obj)
    object.__setattr__(changed, name, value)
    return changed


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__qualname__)
def test_record_methods_match_a_real_dataclass(cls):
    # The shared __eq__, __hash__, __repr__, refusals and pickle state against
    # the ones dataclass compiles, on the same values and on a copy that
    # differs in one field, so that a method which drops a field disagrees.
    obj = EXAMPLES[cls.__name__]()
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(cls)}
    twin = _twin(cls)(**values)
    other = _Other()
    changed = [(_with(obj, name, other), _with(twin, name, other)) for name in values]
    for a, twin_a in [(obj, twin), (dataclasses.replace(obj), dataclasses.replace(twin)), *changed]:
        assert _outcome(lambda: obj == a) == _outcome(lambda: twin == twin_a)
        assert _outcome(lambda: obj != a) == _outcome(lambda: twin != twin_a)
        assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(twin_a))
        assert repr(a) == repr(twin_a)
    assert all(_outcome(lambda: obj == a) != ("returns", True) for a, _ in changed)

    # A record of another class with the same fields and values is not equal.
    namesake = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(values, "object")}))
    stranger = namesake(**values)
    assert obj.__eq__(stranger) is NotImplemented and obj != stranger and stranger != obj

    for name in values:
        assert _outcome(lambda: setattr(obj, name, 0)) == _outcome(lambda: setattr(twin, name, 0))
        assert _outcome(lambda: delattr(obj, name)) == _outcome(lambda: delattr(twin, name))
    # (dataclass's own refusal of a name that is not a field fails with a
    # TypeError from super() on a slotted class in Python 3.11)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 0
    assert obj.__getstate__() == twin.__getstate__() or not _plain(obj)
    for restored in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(restored) is cls and restored is not obj
        assert repr(restored) == repr(obj)
        assert not _plain(obj) or (restored == obj and hash(restored) == hash(obj))
