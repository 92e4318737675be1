"""Every public function, class and method of the package has a caller in
the package or the benchmark, or is kept on purpose as a test fixture, an
oracle or a paper construction that no command runs yet.

References are found by name: every identifier, attribute and dotted string
constant in `src/meandim` (its `__init__` re-exports do not count) and in
`benchmarks/`. A method counts as referenced when any attribute of that name
is, so the check catches dead names, not every dead method.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meandim"

# name -> why it stays without a caller in src/ or benchmarks/
KEPT = {
    "spot_check_metric": "oracle: checks the metric axioms of a domain handle",
    "one_point_handle": "fixture: the one-point domain for certificate algebra tests",
    "finite_cloud_handle": "fixture: a finite point cloud domain for certificate algebra tests",
    "identity_certificate": "fixture: the point-fiber certificate that products and chains combine",
    "EpsEmbeddingCertificate.all_structural_discharged": "oracle: every structural record discharged",
    "pullback_certificate": "paper construction: certificates pulled back along non-contracting maps",
    "SimplicialComplex.empty": "fixture: the empty complex, an edge case of the constructions",
    "cone": "paper construction: the cone of the wedge-of-cones embedding",
    "wedge_cones": "paper construction: the wedge of cones, waiting for a command",
    "stacked_report": "paper construction: the stacked family, waiting for a command",
    "build_sbp_instance": "paper construction: the wedge-of-cones data, waiting for a command",
    "wedge_cone_embedding": "paper construction: the wedge-of-cones embedding, waiting for a command",
    "locate": "oracle: the generic point-location scan that kuhn_simplex is tested against",
    "eval_simplicial_map": "oracle: a vertex map's linear extension, on Fractions",
    "Sft.full_shift": "fixture: the full shift on given symbols",
    "Sft.golden_mean": "fixture: the golden-mean shift",
    "CylinderSet.empty": "fixture: the empty clopen set",
    "CylinderSet.same_set": "oracle: equality of clopen sets, whatever their windows",
    "ocap_neighborhood": "paper construction: clopen neighborhoods of small capacity",
    "cube_from_barycentric": "oracle: the radial chart on Fractions, the inverse of barycentric_from_cube",
}


def public_names():
    """Each public top-level function and class, and each public method of
    a public class, as Class.method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
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
            if isinstance(node, ast.Name):
                names.add(node.id)
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
