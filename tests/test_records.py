"""Value semantics of the library's records.

Plain results (`AnimalStats`, `PathStats`, `MultisetStats`,
`Factorization`, `IdentityCheck`, `CheckResult`, `VerifyReport`) are
NamedTuples.  The types with an invariant or operators of their own
(`Multiset`, `PointAnimal`, `Series`, `BivarTable`, `Heap`) are slotted
classes that take one value protocol from `heapdyck.value.Value`:
immutable, equal only to their own kind, hashed as the tuple of their
fields, and not tuples, so `+` on two series adds series.  None of them
defines its own equality or hash; `Heap` keeps only its own repr, the
heap's text form.
"""

import pytest

from heapdyck import bijections, heaps, multisets, paths, series, verify
from heapdyck.value import Value


def _values():
    """name -> (build, fields, repr): build() makes a fresh value with those fields, in order."""
    return {
        "Multiset": (
            lambda: multisets.Multiset((1, 1, 3), 3),
            {"values": (1, 1, 3), "bound": 3},
            "Multiset(values=(1, 1, 3), bound=3)",
        ),
        "PointAnimal": (
            lambda: heaps.PointAnimal(frozenset({(0, 0)})),
            {"points": frozenset({(0, 0)})},
            "PointAnimal(points=frozenset({(0, 0)}))",
        ),
        "Series": (
            lambda: series.Series((1, -2)),
            {"coeffs": (1, -2)},
            "Series(coeffs=(1, -2))",
        ),
        "BivarTable": (
            lambda: series.BivarTable(((1, 0), (2, 3))),
            {"rows": ((1, 0), (2, 3))},
            "BivarTable(rows=((1, 0), (2, 3)))",
        ),
        "Heap": (
            lambda: heaps.parse_heap("(0,0);(1,1)"),
            {"dimers": ((0, 0), (1, 1))},
            "Heap('(0,0);(1,1)')",
        ),
        "AnimalStats": (
            lambda: heaps.heap_stats(heaps.parse_heap("(0,0);(1,1);(-1,1)")),
            dict(area=3, lw=1, rw=2, width=3, diag=0, nbp_profile={1: 1, 0: 1, 2: 1}),
            "AnimalStats(area=3, lw=1, rw=2, width=3, diag=0, nbp_profile={1: 1, 0: 1, 2: 1})",
        ),
        "PathStats": (
            lambda: paths.height_stats("UDDU"),
            dict(
                semilength=2, cross=1, height_max=1, nbu_profile={1: 1, -1: 1},
                d_end_heights=(0, 0), dud_count=0, udu_count=0,
            ),
            "PathStats(semilength=2, cross=1, height_max=1, nbu_profile={1: 1, -1: 1}, "
            "d_end_heights=(0, 0), dud_count=0, udu_count=0)",
        ),
        "MultisetStats": (
            lambda: multisets.stats(multisets.validate([1, 3], 3)),
            dict(length=2, cross=0, adj=0, gap_profile=(0, 1), gap=1, delta_profile=(1, 1)),
            "MultisetStats(length=2, cross=0, adj=0, gap_profile=(0, 1), gap=1, "
            "delta_profile=(1, 1))",
        ),
        "Factorization": (
            lambda: bijections.factorize(heaps.parse_heap("(0,0);(1,1)")),
            {"case": "ii", "parts": (heaps.parse_heap("(0,0)"),)},
            "Factorization(case='ii', parts=(Heap('(0,0)'),))",
        ),
        "IdentityCheck": (
            lambda: series.IdentityCheck("x", True, "d"),
            {"name": "x", "ok": True, "detail": "d"},
            "IdentityCheck(name='x', ok=True, detail='d')",
        ),
        "CheckResult": (
            lambda: verify.CheckResult("c", False, "n=1"),
            {"name": "c", "ok": False, "detail": "n=1"},
            "CheckResult(name='c', ok=False, detail='n=1')",
        ),
        "VerifyReport": (
            lambda: verify.VerifyReport("counts", 2, [verify.CheckResult("c", True, "all")]),
            {"suite": "counts", "max_n": 2, "checks": [verify.CheckResult("c", True, "all")]},
            "VerifyReport(suite='counts', max_n=2, "
            "checks=[CheckResult(name='c', ok=True, detail='all')])",
        ),
    }


VALUES = _values()
SLOTTED = ("Multiset", "PointAnimal", "Series", "BivarTable", "Heap")
# records holding a dict or a list, which no frozen record could hash either
UNHASHABLE = ("AnimalStats", "PathStats", "VerifyReport")


@pytest.mark.parametrize("name", VALUES)
def test_repr_text(name):
    build, _, text = VALUES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_make_equal_values(name):
    build, fields, _ = VALUES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert type(a).__name__ == name
    assert {f: getattr(a, f) for f in fields} == fields
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        # the hash of the tuple of the fields, as a frozen dataclass hashed
        assert hash(a) == hash(b) == hash(tuple(fields.values()))


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned(name):
    build, fields, _ = VALUES[name]
    value = build()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", SLOTTED)
def test_slotted_types_are_not_tuples(name):
    build, fields, _ = VALUES[name]
    value = build()
    assert not isinstance(value, tuple)
    assert value != tuple(fields.values()) and value != next(iter(fields.values()))
    assert not hasattr(value, "__dict__")


def test_slotted_types_differ_from_one_another():
    table = series.BivarTable(((1,),))
    assert series.Series((1,)) != table and table != series.Series((1,))
    assert multisets.Multiset((1,), 1) != heaps.PointAnimal(frozenset({(0, 0)}))


def test_series_operators_stay_series_operators():
    a = series.Series((1, 2, 3))
    b = series.Series((3, 0))
    assert a + b == series.Series((4, 2))
    assert a - b == series.Series((-2, 2))
    assert a * b == series.Series((3, 6))
    assert (a / a).coeffs == (1, 0, 0)
    assert a[2] == 3 and a.order == 2
    with pytest.raises(IndexError):
        a[3]


def test_slotted_constructors_keep_their_checks():
    with pytest.raises(ValueError):
        series.Series(())
    assert series.Series((1, 2)).coeffs == (1, 2)
    assert all(type(c) is int for c in series.Series((1, 2)).coeffs)
    with pytest.raises(ValueError):
        heaps.PointAnimal(frozenset({(0, 0), (2, 0)}))


def test_records_keep_their_methods():
    passed = verify.CheckResult("c", True, "all")
    failed = verify.CheckResult("d", False, "n=1")
    assert failed.format_line() == "FAIL d: n=1"
    report = verify.VerifyReport("counts", 2, [passed, failed])
    assert not report.ok and verify.VerifyReport("counts", 2, [passed]).ok
    assert report.format_lines() == ["OK c: all", "FAIL d: n=1"]
    assert multisets.Multiset((1, 3), 3).size == 2
    assert str(multisets.Multiset((1, 3), 3)) == "1,3|k=3"


@pytest.mark.parametrize(
    "kind",
    [multisets.Multiset, heaps.PointAnimal, series.Series, series.BivarTable, heaps.Heap],
    ids=lambda kind: kind.__name__,
)
def test_slotted_types_share_one_value_protocol(kind):
    assert issubclass(kind, Value)


def test_no_value_type_defines_its_own_equality_or_hash():
    """Value binds __eq__ and __hash__ into each subclass; a class body that defines one is refused."""
    kinds = {k.__name__: k for k in Value.__subclasses__() if k.__module__.startswith("heapdyck.")}
    assert sorted(kinds) == sorted(SLOTTED)
    for kind in kinds.values():
        for method in ("__eq__", "__hash__"):
            assert vars(kind)[method].__qualname__.startswith("Value.__init_subclass__.")
    for method in ("__eq__", "__hash__"):
        with pytest.raises(TypeError, match="defines its own equality or hash"):
            type("Own", (Value,), {"__slots__": ("x",), method: lambda self, *other: 0})


def test_heap_is_immutable():
    h = heaps.parse_heap("(0,0);(1,1)")
    with pytest.raises(AttributeError) as raised:
        h.dimers = ()
    assert str(raised.value) == "Heap is immutable"
    assert h.dimers == ((0, 0), (1, 1))


@pytest.mark.parametrize("name", SLOTTED)
def test_fields_cannot_be_deleted(name):
    """A deleted slot would leave a value whose repr, equality and hash raise."""
    build = VALUES[name][0]
    value = build()
    for field in type(value).__slots__:
        with pytest.raises(AttributeError) as raised:
            delattr(value, field)
        assert str(raised.value) == f"{name} is immutable"
    assert value == build() and hash(value) == hash(build()) and repr(value) == repr(build())


@pytest.mark.parametrize("name", SLOTTED)
def test_slotted_constructors_take_their_own_arguments(name):
    """Each type keeps its explicit __init__: a wrong argument count is a TypeError."""
    build, fields, _ = VALUES[name]
    kind = type(build())
    with pytest.raises(TypeError):
        kind()
    with pytest.raises(TypeError):
        kind(*fields.values(), None)
