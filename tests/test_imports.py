"""Every name a package module imports is used in that module, no package
module imports the tests, and the package exports a fixed set of names."""

import ast
import types
from pathlib import Path

import pytest

import convext

SRC = Path(__file__).resolve().parents[1] / "src" / "convext"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_name():
    assert unused_imports("import json\nfrom .a import b, c\nprint(c)\n") == [(1, "json"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# the test-only oracles live in tests/oracles.py, not in the package
TEST_MODULES = {"tests", "conftest", "oracles"} | {p.stem for p in Path(__file__).parent.glob("test_*.py")}

PUBLIC = [
    "ConstantTooSmallError", "ConstructedModulus", "EnvelopeModel", "ExtensionConfig", "ExtensionModel",
    "FeasibilityReport", "Generator", "HolderModulus", "InfeasibleJetError", "Jet", "LinearModulus",
    "Modulus", "NonCoerciveModulusError", "ScaledModulus", "TableModulus", "VerificationReport",
    "build_construction", "build_envelope", "build_extension", "c1_extend", "check_condition_C",
    "check_condition_CW1", "compute_A", "default_domain", "delta1_value", "delta_many",
    "feasibility_report", "lip_omega_gradients", "minorant", "modulus_from_json", "modulus_to_json",
    "parse_modulus_spec", "seminorm_A_extrinsic", "seminorm_A_intrinsic", "sup_norm_gradients",
    "validate_modulus", "verify_extension", "write_samples_csv",
]


def imported_modules(source: str):
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_scan_finds_absolute_imports_only():
    assert imported_modules("import tests.oracles\nfrom oracles import x\nfrom .jet import y\n") == {
        "tests", "oracles"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_package_module_imports_the_tests(path):
    assert imported_modules(path.read_text()) & TEST_MODULES == set()


def test_public_names():
    names = sorted(n for n, v in vars(convext).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert len(PUBLIC) == 38
    assert names == sorted(PUBLIC)
