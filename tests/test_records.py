"""The twelve record classes built on `bsw.poly.Record`: construction and
the binding of its arguments, field-wise equality, hash and repr,
immutability and pickling."""

import pickle

import pytest

from bsw.closure import MonomialIdeal
from bsw.loja import LojaEstimate, VarietySampler
from bsw.poly import Polynomial, RingContext, WeightedDegreeInfo
from bsw.resolution import FreeComplex, StrataReport, StratumInfo
from bsw.semigroup import NumericalSemigroup, SemigroupIdeal
from bsw.session import Command, Session

R = RingContext(("x", "y"), (2, 3), "lex")
T = RingContext(("t",))
x, y = Polynomial.variable(R, 0), Polynomial.variable(R, 1)
t = Polynomial.variable(T, 0)
COMMAND = dict(kind="resolve", line=3, col=1, inputs={"ideal": "I"}, payload={"max_len": 4})

# each class with its field values in field order, as the record stores them.
# Ideal and PolyMatrix compare by identity, so no example holds one: the
# complex has no maps and the stratum's ideal is a tuple of generators.
EXAMPLES = [
    (RingContext, dict(variable_names=("x", "y"), weights=(2, 3), order="lex")),
    (WeightedDegreeInfo, dict(min_degree=2, max_degree=3, quasi_homogeneous=False)),
    (MonomialIdeal, dict(nvars=2, exponents=((0, 3), (2, 0)))),
    (FreeComplex, dict(ring=R, ranks=(1,), maps=(), graded=True, shifts=((0,),))),
    (StratumInfo, dict(ideal=(x, y), dim=0, codim_in_z=1)),
    (StrataReport, dict(ring=R, d=1, p=1, expected=(1,), zk_ideals={1: (x,)},
                        strata={0: StratumInfo((x, y), 0, 1)}, purity_ok=True,
                        degenerate=("unit minor",))),
    (NumericalSemigroup, dict(generators=(2, 5), conductor=4, gap_mask=0b1010)),
    (SemigroupIdeal, dict(shifts=(2, 5))),
    (VarietySampler, dict(kind="parametrized", ring=R, radii=(0.1, 0.01), samples_per_radius=3,
                          seed=7, components=(t**2, t**3), solved_var=None, solved_expr=None,
                          defining=(x**3 - y**2,))),
    (LojaEstimate, dict(slope=1.5, intercept=0.25, residual=0.01, n_points=4,
                        radii_range=(0.1, 0.01), reliable=True, log_a=(-1.0, -2.0),
                        log_phi=(-1.5, -3.0))),
    (Command, COMMAND),
    (Session, dict(n_statements=2, commands=[Command(**COMMAND)])),  # the one mutable record
]
IDS = [cls.__name__ for cls, _ in EXAMPLES]


def hash_or_error(value):
    """hash(value), or TypeError where value (a record or tuple holding a
    dict or list) is unhashable."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, fields", EXAMPLES, ids=IDS)
def test_records_compare_hash_and_print_by_their_fields(cls, fields):
    values = tuple(fields.values())
    rec = cls(*values)
    assert rec == cls(**fields)
    assert tuple(getattr(rec, name) for name in fields) == values
    assert hash_or_error(rec) == hash_or_error(values)
    assert not rec != cls(*values)
    # a record equals only a record of its own class
    twin = type("Twin", (cls,), {})(*values)
    assert rec != twin and twin != rec and rec != values
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(rec) == f"{cls.__name__}({body})"
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec


@pytest.mark.parametrize("cls, fields", EXAMPLES, ids=IDS)
def test_records_bind_each_field_exactly_once(cls, fields):
    values = tuple(fields.values())
    first, *rest = fields
    assert cls(values[0], **{name: fields[name] for name in rest}) == cls(*values)
    refused = [(values + (None,), {}),  # one value too many
               (values, {"extra": 1}),  # an unknown keyword
               (values, {first: values[0]})]  # a field both by position and by name
    if "__init__" not in vars(cls):  # Record binds the fields; no field has a default
        refused += [(values[:-1], {}), ((), dict(list(fields.items())[1:]))]
    for args, named in refused:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **named)


@pytest.mark.parametrize("cls, fields", EXAMPLES[:-1], ids=IDS[:-1])
def test_records_refuse_assignment_and_deletion(cls, fields):
    rec = cls(**fields)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(rec, name, value)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, name) == value


def test_records_differ_when_any_one_field_differs():
    # a record with one field swapped for a fresh object, set past the checks
    # of __init__: an equality or hash that skipped that field would miss it
    for cls, fields in EXAMPLES:
        rec = cls(**fields)
        for name in fields:
            other = object.__new__(cls)
            for key, value in {**vars(rec), name: object()}.items():
                object.__setattr__(other, key, value)
            assert rec != other and other != rec, (cls.__name__, name)
            if cls is not Session:
                values = tuple(getattr(other, key) for key in fields)
                assert hash_or_error(other) == hash_or_error(values), (cls.__name__, name)


def test_order_key_and_minors_cache_lie_outside_equality():
    a, b = RingContext(("x", "y"), (2, 3), "lex"), RingContext(("x", "y"), (2, 3), "lex")
    assert a.order_key is not b.order_key and a.order_key != b.order_key
    assert a == b and hash(a) == hash(b)
    assert "order_key" not in repr(a)
    assert pickle.loads(pickle.dumps(a)).order_key((1, 2)) == a.order_key((1, 2))
    C = FreeComplex(R, (1,), (), True, ((0,),))
    fresh = FreeComplex(R, (1,), (), True, ((0,),))
    assert C.rank_minors_on(None) == () and "_rank_minors" in vars(C)
    assert C == fresh and hash(C) == hash(fresh) and repr(C) == repr(fresh)


def test_session_is_mutable_and_unhashable():
    sess = Session()
    assert sess == Session(0, []) and sess.commands is not Session().commands
    sess.n_statements += 1
    sess.commands.append(Command(**COMMAND))
    assert sess == Session(1, [Command(**COMMAND)])
    del sess.n_statements
    assert Session.__hash__ is None
    with pytest.raises(TypeError):
        hash(Session())
