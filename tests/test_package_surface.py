"""Every public function, class, method and module-level constant of the
package has a caller in the package or the benchmark, or is kept on purpose
as a paper construction that no command runs yet. Fixtures and oracles that
only tests read live in `tests/oracles.py`.

References are found by name: every identifier read (not assigned),
attribute and dotted string constant in `src/meandim` (its `__init__`
re-exports do not count) and in `benchmarks/`. A method counts as referenced
when any attribute of that name is, so the check catches dead names, not
every dead method.

The package's value classes are written out, not built by `@dataclass` at
import, and keep the repr, equality, hashing and immutability that
`@dataclass` gave them.
"""

import ast
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

from meandim.certificates import DischargeRecord
from meandim.complexes import SimplicialComplex, VertexPartition
from meandim.counterexample import (
    CounterexampleParams,
    CountReport,
    FactorMapInstance,
    FiberPoint,
    ReportRow,
)
from meandim.geometry import kuhn_triangulate_cube
from meandim.symbolic import (
    CylinderSet,
    IntegerWindow,
    OcapResult,
    OdometerTower,
    Sft,
    ShiftMetric,
    WindowSeq,
)
from meandim.widthmaps import CubeWidthMap, FlagPoint, KuhnWidthPipeline, PartitionWidthMap
from oracles import full_shift

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meandim"

# name -> why it stays without a caller in src/ or benchmarks/
KEPT = {
    "stacked_report": "paper construction: the stacked family, waiting for a command",
    "build_sbp_instance": "paper construction: the wedge-of-cones data, waiting for a command",
    "wedge_cone_embedding": "paper construction: the wedge-of-cones embedding, waiting for a command",
    "ocap_neighborhood": "paper construction: clopen neighborhoods of small capacity",
}


# each defaulted parameter, **kwargs and dataclass field default in the
# package, as module.qualified_name.parameter -> why callers may leave it out
DEFAULTS = {
    "certificates.DischargeRecord.__init__.data": "a cited record carries no data",
    "certificates.DischargeRecord.__init__.witness": "only a failed record carries a witness",
    "certificates.structural_record.status": "a structural record is built discharged unless "
    "its premise fails",
    "certificates.structural_record.witness": "only a failed record carries a witness",
    "certificates.structural_record.**data": "the record's fields, written canonically",
    "certificates.sampled_record.witness": "only a failed record carries a witness",
    "certificates.sampled_record.**data": "the record's fields, written canonically",
    "certificates.EpsEmbeddingCertificate.obligations": "dataclass field order: it follows "
    "the required evaluator",
    "certificates.EpsEmbeddingCertificate.target_dist": "flat max metric, the target metric of "
    "a map into flat coordinates such as the empty fiber's",
    "certificates.sample_fiber_check.eta": "None is the recipe's unset eta, read as eps/100",
    "certificates.check_certificate.eta": "None is the recipe's unset eta, read as eps/100",
    "cli._load_json.parse": "most input files are read as they are",
    "cli.main.argv": "None reads sys.argv, as the console script calls it",
    "counterexample.CounterexampleParams.__init__.seed": "a recipe's seed, 0 when unset",
    "counterexample.build_sbp_instance.pieces": "None refines the cover; given pieces build "
    "punctured families",
    "symbolic.CylinderSet.contains_point.shift": "a point is read unshifted except by the "
    "wedge-cone evaluator",
}


def defaults():
    """Each defaulted parameter and **kwargs of a function or lambda in the
    package, and each field default of a class body, as
    module.qualified_name.parameter."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
                found.extend(
                    f"{name}.{item.target.id}"
                    for item in child.body
                    if isinstance(item, ast.AnnAssign) and item.value is not None
                )
            elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
                args = child.args
                positional = args.posonlyargs + args.args
                found.extend(
                    f"{name}.{arg.arg}" for arg in positional[len(positional) - len(args.defaults):]
                )
                found.extend(
                    f"{name}.{arg.arg}"
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                )
                if args.kwarg:
                    found.append(f"{name}.**{args.kwarg.arg}")
            else:
                name = prefix
            visit(child, name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_every_default_has_a_reason():
    # a new knob fails here until it is listed with why callers may omit it,
    # and an entry whose default is gone leaves the list
    found = defaults()
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(DEFAULTS)


def public_names():
    """Each public top-level function, class and constant (a module-level
    assignment), and each public method of a public class, as
    Class.method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.extend(
                    t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")
                )
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found.extend(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return found


def referenced_names():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "benchmarks").glob("*.py")
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)  # an assignment is no reference
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))  # traced "Class.method" names
    return names


def test_every_public_name_has_a_caller_or_a_reason():
    used = referenced_names()
    unreferenced = {name for name in public_names() if name.split(".")[-1] not in used}
    assert sorted(unreferenced - set(KEPT)) == []
    # an entry whose name gained a caller, or is gone, leaves the list
    assert sorted(set(KEPT) - unreferenced) == []


def test_import_meandim_loads_no_module_and_binds_only_the_version():
    # every name is imported from its module: the package re-exports
    # nothing, so importing it alone loads no submodule
    code = (
        "import sys, meandim; "
        "print(sorted(n for n in sys.modules if n.startswith('meandim.'))); "
        "print(sorted(n for n in vars(meandim) if not n.startswith('__')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n"
    docstring, *rest = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert isinstance(docstring, ast.Expr)
    assert all(isinstance(node, ast.Assign) for node in rest)
    assert [target.id for node in rest for target in node.targets] == ["__version__"]


# `benchmarks/spans.py` copies these two with `dataclasses.replace`
DATACLASSES = {"MetricSpaceHandle", "EpsEmbeddingCertificate"}


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def test_no_class_is_built_by_dataclass_at_import():
    # @dataclass builds each generated method with its own exec() when the
    # module is imported, and every command imports every module
    built = sorted(
        f"{path.name}:{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and node.name not in DATACLASSES
        and any(map(_is_dataclass_decorator, node.decorator_list))
    )
    assert built == [], (
        "write these classes out on errors.Struct, FrozenStruct or Value: "
        "@dataclass generates their methods with exec() on every import"
    )


@pytest.mark.parametrize(
    "value, text",
    [
        (WindowSeq(-2, (Fraction(1, 2), 0)), "WindowSeq(start=-2, values=(Fraction(1, 2), 0))"),
        (
            FlagPoint(((0, 0), (1, 0), (1, 1)), (3, 2, 1), 6),
            "FlagPoint(chain=((0, 0), (1, 0), (1, 1)), weights=(3, 2, 1), denom=6)",
        ),
        (
            DischargeRecord("x", "SAMPLED", "failed", (("trials", "5"),), ("a", "b")),
            "DischargeRecord(name='x', kind='SAMPLED', status='failed', "
            "data=(('trials', '5'),), witness=('a', 'b'))",
        ),
        (
            CounterexampleParams(Fraction(1, 2), Fraction(1, 2), 16),
            "CounterexampleParams(delta=Fraction(1, 2), eps=Fraction(1, 2), m=3, level=3, "
            "grid=17, horizon=16, margin=3, seed=0)",
        ),
        # the fields built in __init__ stay out of the repr
        (KuhnWidthPipeline(2, 3, 4), "KuhnWidthPipeline(n=2, m=3, grid=4)"),
        (
            SimplicialComplex(("a",), frozenset({frozenset({"a"})})),
            "SimplicialComplex(vertices=('a',), simplices=frozenset({frozenset({'a'})}))",
        ),
    ],
)
def test_repr_is_the_dataclass_repr(value, text):
    assert repr(value) == text


def _values():
    """Each class compared by its fields: a factory that builds equal
    instances, and the field names in order."""
    return [
        (
            lambda: DischargeRecord("empty-fiber", "STRUCTURAL", "discharged"),
            ("name", "kind", "status", "data", "witness"),
        ),
        (
            lambda: CounterexampleParams(Fraction(1, 2), Fraction(1, 2), 8),
            ("delta", "eps", "m", "level", "grid", "horizon", "margin", "seed"),
        ),
        (
            lambda: CountReport(2, 8, 3, Fraction(7), 6, 2, ()),
            ("samples", "horizon", "max_count", "bound", "block_bound", "hull_max", "violations"),
        ),
        (
            lambda: ReportRow(Fraction(1, 2), 8, 6, Fraction(3, 4), Fraction(7, 8)),
            ("eps", "N", "fiber_dim", "fiber_dim_over_N", "image_dim_over_N"),
        ),
        (lambda: OcapResult(Fraction(1, 2), (0, 1), 3), ("value", "witness", "graph_size")),
        (lambda: OdometerTower(3), ("level",)),
        (lambda: WindowSeq(0, (1, 2)), ("start", "values")),
        (lambda: ShiftMetric(abs), ("coord_dist",)),
        (lambda: IntegerWindow(0, (1, 2), 3), ("start", "nums", "den")),
        (lambda: FlagPoint(((0,), (1,)), (1, 1), 2), ("chain", "weights", "denom")),
    ]


@pytest.mark.parametrize("make, names", _values())
def test_value_classes_compare_and_hash_by_fields(make, names):
    a, b = make(), make()
    fields = tuple(getattr(a, name) for name in names)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert a != fields  # another class never compares equal
    with pytest.raises(FrozenInstanceError):
        setattr(a, names[0], None)
    with pytest.raises(FrozenInstanceError):
        delattr(a, names[0])


def _identity_classes():
    """Two instances with equal fields of each class compared by identity,
    and whether it is frozen."""
    sft = full_shift("01")
    half = Fraction(1, 2)
    return [
        (lambda: SimplicialComplex(("a",), frozenset({frozenset({"a"})})), True),
        (lambda: VertexPartition((("a",), ("b",))), True),
        (lambda: kuhn_triangulate_cube(1, 2), True),
        (lambda: Sft(("0",), frozenset({("0", "0")})), True),
        (lambda: CylinderSet(sft, 0, 1, frozenset({("1",)})), True),
        (lambda: KuhnWidthPipeline(2, 3, 4), True),
        (lambda: FiberPoint(0, (1,), (), (2,), 4), True),
        (lambda: FactorMapInstance(CounterexampleParams(half, half, 8)), False),
        (lambda: PartitionWidthMap(None, VertexPartition(()), half, {}, None, 1), False),
        (lambda: CubeWidthMap(1, 2, half, 17, None), False),
    ]


@pytest.mark.parametrize("make, frozen", _identity_classes())
def test_identity_classes_compare_and_hash_by_identity(make, frozen):
    a, b = make(), make()
    assert a == a and a != b and hash(a) == object.__hash__(a)
    if frozen:
        with pytest.raises(FrozenInstanceError):
            a.anything = 1
    else:
        a.anything = 1
        assert a.anything == 1


def test_keyword_construction_keeps_the_defaults():
    record = DischargeRecord(name="empty-fiber", kind="STRUCTURAL", status="discharged")
    assert (record.data, record.witness) == ((), None)
    params = CounterexampleParams(delta=Fraction(1, 2), eps=Fraction(1, 2), horizon=8)
    assert params.seed == 0
    assert params == CounterexampleParams(Fraction(1, 2), Fraction(1, 2), 8, 0)
    width_map = PartitionWidthMap(
        geometry=None, partition=None, eps=Fraction(1, 2), block_of={}, mesh_record=None,
        source_dim=2,
    )
    assert (width_map.eps, width_map.source_dim) == (Fraction(1, 2), 2)
