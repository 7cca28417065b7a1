"""Records: the generated methods, pickling, and set-up without dataclasses."""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import specdiff
from specdiff.generator import GenConfig, ValueRules
from specdiff.harness import CampaignResult
from specdiff.interp import Failed
from specdiff.plan import OpPlan, SigPlan, Target
from specdiff.record import record
from specdiff.report import BenchLine, ParsedReport, ReportLine
from specdiff.sigdsl import (
    ABSTRACT,
    BOOL,
    CHAR,
    INT,
    STR,
    UNIT,
    AtomTy,
    FunTy,
    ListTy,
    OpDecl,
    OptionTy,
    Signature,
)
from specdiff.suite import SuiteEntry
from specdiff.suite.finite_set import ListSet
from specdiff.symexpr import (
    BinOp,
    Call,
    Const,
    Seq,
    VAbstract,
    Var,
    VChar,
    VNone,
    VSome,
)

def samples() -> list:
    """One instance of every record class, with picklable fields; each of
    the six atom types, as when each had a class."""
    op = OpDecl("mem", (INT, ABSTRACT), BOOL)
    sig = Signature("s", False, (op,))
    plan = OpPlan("get", (), INT, (), (), (), abs, Call("get", ()))
    bench = BenchLine("s:b1", 0, None, 4)
    return [
        Var(), Const(-2), BinOp("add", Var(), Const(2)), BinOp("sub", Const(1), Var()),
        BinOp("mul", Var(), Var()),
        VChar("a"), VNone(), VSome(2), VAbstract((1, 2)),
        Call("mem", (3, Call("empty", ()))), Seq(Call("incr", ()), Call("get", ())),
        INT, BOOL, CHAR, STR, UNIT, ABSTRACT, ListTy(INT), OptionTy(ListTy(CHAR)),
        FunTy(INT, INT), op, sig, Failed("empty"),
        GenConfig(), GenConfig(5, 0.5, 9),
        plan, Target(INT, (plan,), (plan,)), ValueRules(abs, abs, 0),
        SigPlan({}, {}, (), Target(ABSTRACT, (), ()), None),
        ReportLine("s:bool", "failed", "(mem 3 (empty))", 2, 3, 0, 7, 1, outcome_a="ok true"),
        bench, ParsedReport([], [bench], [{"type": "summary"}]),
        CampaignResult(1, [], ("bool",), 0),
        SuiteEntry("finite_set", sig, {"listset": ListSet}, {}, "listset"),
    ]


# What the data-class versions of these classes gave, for samples() in
# order: the repr, and the hash.  A hash that depends on string hashing,
# which varies between processes, is given as the rule it followed instead.
# Some entries differ on purpose: SigPlan compared and hashed by identity,
# and now compares by its fields, like every other record; nothing
# compares or hashes a plan.  BinOp, which holds its operator's name,
# replaced one class per operator, so its reprs name the operator and
# its hashes depend on string hashing; OpPlan gained its args and its
# arg_checks, and SigPlan its abstract_leaf.  ValueRules never was a data
# class; its entry is what a record of its fields gives.  AtomTy, which holds its IDL name, replaced
# one field-less class per base type and t, so every type's repr names its
# atoms and its hash depends on string hashing.  ReportLine was a plain
# unhashable class, and is now a record that hashes as its fields.
# CampaignResult holds its observable types' names where it held their
# trial counts, which it now derives from them.  An int, bool, string,
# unit or list value is the Python value itself, so VSome's sample holds a
# bare int, and the call and ValueRules samples hold bare ints too.
FIELDS, UNHASHABLE = "hash of the field tuple", "unhashable"
PARENT = [
    ("Var()", 5740354900026072187),
    ("Const(value=-2)", 8078679518589016365),
    ("BinOp(op='add', left=Var(), right=Const(value=2))", FIELDS),
    ("BinOp(op='sub', left=Const(value=1), right=Var())", FIELDS),
    ("BinOp(op='mul', left=Var(), right=Var())", FIELDS),
    ("VChar(value='a')", FIELDS),
    ("VNone()", 5740354900026072187),
    ("VSome(value=2)", 6909455589863252355),
    ("VAbstract(handle=(1, 2))", 7059930188335900088),
    ("Call(op='mem', args=(3, Call(op='empty', args=())))", FIELDS),
    ("Seq(first=Call(op='incr', args=()), second=Call(op='get', args=()))", FIELDS),
    ("AtomTy(name='int')", FIELDS),
    ("AtomTy(name='bool')", FIELDS),
    ("AtomTy(name='char')", FIELDS),
    ("AtomTy(name='string')", FIELDS),
    ("AtomTy(name='unit')", FIELDS),
    ("AtomTy(name='t')", FIELDS),
    ("ListTy(elem=AtomTy(name='int'))", FIELDS),
    ("OptionTy(elem=ListTy(elem=AtomTy(name='char')))", FIELDS),
    ("FunTy(arg=AtomTy(name='int'), ret=AtomTy(name='int'))", FIELDS),
    (
        "OpDecl(name='mem', args=(AtomTy(name='int'), AtomTy(name='t')), "
        "ret=AtomTy(name='bool'))",
        FIELDS,
    ),
    (
        "Signature(name='s', mutable=False, ops=(OpDecl(name='mem', args=(AtomTy(name='int'), "
        "AtomTy(name='t')), ret=AtomTy(name='bool')),))",
        FIELDS,
    ),
    ("Failed(tag='empty')", FIELDS),
    ("GenConfig(max_size=30, seq_probability=0.25, seed=0)", -8611368451487893774),
    ("GenConfig(max_size=5, seq_probability=0.5, seed=9)", 8236239433100899611),
    (
        "OpPlan(name='get', args=(), ret=AtomTy(name='int'), subexprs=(), draws=(), "
        "arg_checks=(), check=<built-in function abs>, node=Call(op='get', args=()))",
        FIELDS,
    ),
    (
        "Target(ty=AtomTy(name='int'), ops=(OpPlan(name='get', args=(), ret=AtomTy(name='int'), "
        "subexprs=(), draws=(), arg_checks=(), check=<built-in function abs>, "
        "node=Call(op='get', args=())),), leaves=(OpPlan(name='get', args=(), "
        "ret=AtomTy(name='int'), subexprs=(), draws=(), arg_checks=(), "
        "check=<built-in function abs>, node=Call(op='get', args=())),))",
        FIELDS,
    ),
    (
        "ValueRules(check=<built-in function abs>, draw=<built-in function abs>, least=0)",
        FIELDS,
    ),
    (
        "SigPlan(ops={}, targets={}, effects=(), abstract=Target(ty=AtomTy(name='t'), ops=(), "
        "leaves=()), abstract_leaf=None)",
        UNHASHABLE,
    ),
    (
        "ReportLine(property='s:bool', status='failed', representation='(mem 3 (empty))', "
        "depth=2, size=3, num_seq=0, seed=7, trial=1, schema_version='1', outcome_a='ok true', "
        "outcome_b=None, shrunk=None, detail=None)",
        FIELDS,
    ),
    (
        "BenchLine(property='s:b1', run=0, trials_to_failure=None, seed=4, schema_version='1')",
        FIELDS,
    ),
    (
        "ParsedReport(trials=[], benches=[BenchLine(property='s:b1', run=0, "
        "trials_to_failure=None, seed=4, schema_version='1')], summaries=[{'type': 'summary'}])",
        UNHASHABLE,
    ),
    (
        "CampaignResult(total_trials=1, records=[], observables=('bool',), seed=0)",
        UNHASHABLE,
    ),
    (
        "SuiteEntry(name='finite_set', signature=Signature(name='s', mutable=False, "
        "ops=(OpDecl(name='mem', args=(AtomTy(name='int'), AtomTy(name='t')), "
        "ret=AtomTy(name='bool')),)), "
        "implementations={'listset': <class 'specdiff.suite.finite_set.ListSet'>}, "
        "bug_variants={}, reference='listset')",
        UNHASHABLE,
    ),
]


def record_classes() -> set[type]:
    """Every class in specdiff's modules with record fields: the @record classes."""
    modules = [m for name, m in sys.modules.items() if name.startswith("specdiff")]
    return {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__.startswith("specdiff")
        and "_fields" in vars(obj)
        and not issubclass(obj, tuple)  # named tuples have _fields too
    }


def test_every_record_class_has_a_sample():
    assert record_classes() == {type(x) for x in samples()}
    assert len(PARENT) == len(samples())


def sample_id(index: int) -> str:
    """A sample's class name; a BinOp's is its operator's and an atom's its
    type's, as when each had a class (IntTy, ..., StrTy for string, AbstractTy
    for t)."""
    x = samples()[index]
    if type(x) is BinOp:
        return x.op.capitalize()
    if type(x) is AtomTy:
        return {"string": "Str", "t": "Abstract"}.get(x.name, x.name.capitalize()) + "Ty"
    return type(x).__name__


@pytest.mark.parametrize("index", range(len(PARENT)), ids=sample_id)
def test_repr_equality_and_hash_match_the_data_classes(index):
    x, twin = samples()[index], samples()[index]
    want_repr, want_hash = PARENT[index]
    assert repr(x) == want_repr
    assert x == twin and not x != twin
    if want_hash == UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    elif want_hash == FIELDS:
        assert hash(x) == hash(tuple(getattr(x, name) for name in type(x)._fields))
    else:
        assert hash(x) == want_hash


@pytest.mark.parametrize("index", range(len(PARENT)), ids=sample_id)
def test_pickle_and_copies_round_trip(index):
    x = samples()[index]
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is type(x) and repr(y) == repr(x) and y == x


def test_equality_is_exact_in_class():
    fieldless = [Var(), VNone()]
    for a in fieldless:
        for b in fieldless:
            assert (a == b) is (type(a) is type(b))
            assert (a != b) is (type(a) is not type(b))
    # A char is no string, and a value is no function constant or failure.
    assert VChar("a") != "a" and VSome(1) != Const(1) and Failed("a") != "a"
    assert VSome(None) != VNone() and VAbstract(0) != 0
    # Atoms are equal by name, and a type is no value, whatever its field.
    assert INT != BOOL and not INT == BOOL and AtomTy("int") == INT and not AtomTy("int") != INT
    assert INT != 0 and INT != "int" and ABSTRACT != VAbstract("t")
    assert {INT: "int", BOOL: "bool"}[AtomTy("bool")] == "bool"


def test_gen_config_defaults_and_keywords():
    assert (GenConfig().max_size, GenConfig().seq_probability, GenConfig().seed) == (30, 0.25, 0)
    assert GenConfig(seed=3) == GenConfig(30, 0.25, 3) == GenConfig(30, seed=3)
    assert GenConfig(max_size=5).seed == 0
    with pytest.raises(TypeError):
        GenConfig(seeds=3)
    with pytest.raises(TypeError):
        GenConfig(1, 0.5, 2, 3)
    with pytest.raises(TypeError):
        GenConfig(1, max_size=1)
    with pytest.raises(TypeError):
        VChar()


def test_records_are_immutable():
    for x in samples():
        for name in [*type(x)._fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


def test_a_dict_slot_holds_cached_tables_outside_the_fields():
    sig = next(x for x in samples() if type(x) is Signature)
    assert not hasattr(VChar("a"), "__dict__")
    assert sig.plan.ops["mem"].args == sig.ops[0].args
    assert sig.__dict__.keys() == {"plan"}
    assert pickle.loads(pickle.dumps(sig)).__dict__ == {}


def test_a_field_without_a_default_cannot_follow_one_with_a_default():
    with pytest.raises(TypeError, match="'b' has no default"):

        @record
        class Bad:
            a: int = 0
            b: int


def test_every_exported_name_resolves():
    assert [name for name in specdiff.__all__ if not hasattr(specdiff, name)] == []
    namespace: dict = {}
    exec("from specdiff import *", namespace)
    assert set(specdiff.__all__) <= namespace.keys()


def test_importing_the_cli_brings_in_neither_dataclasses_nor_inspect():
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps bytecode out of the checkout
    src = Path(specdiff.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import specdiff.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)), "
        "sys.flags.dont_write_bytecode)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[] 1\n"
