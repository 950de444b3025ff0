"""The package root and the public names of its modules."""

import ast
import functools
import importlib
import importlib.util
import inspect
import pathlib
import re
import subprocess
import sys

import pytest

# the library modules; each declares its public names in __all__
MODULES = ("gaussian", "groups", "representations", "coorbit", "numerics", "frames", "oracles")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coorbit_lab"


def test_importing_the_package_loads_none_of_its_modules():
    code = "import sys, coorbit_lab; print(sorted(m for m in sys.modules if m.startswith('coorbit_lab.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"coorbit_lab.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_defined_in_its_module(name):
    # a re-export left behind by a move fails: every public function and class
    # is defined here, and any other public name (groups.GROUPS) assigned here
    module = importlib.import_module(f"coorbit_lab.{name}")
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assigned = {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}

    def defined_here(entry):
        value = getattr(module, entry)
        if inspect.isfunction(value) or inspect.isclass(value):
            return value.__module__ == module.__name__
        return not callable(value) and entry in assigned

    assert [entry for entry in module.__all__ if not defined_here(entry)] == []


def _package_imports(path) -> set[str]:
    """The package modules a source file imports from, by short name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("coorbit_lab"):
                    continue
                module = module.removeprefix("coorbit_lab").lstrip(".")
            found.update([module.split(".")[0]] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("coorbit_lab."))
    return found


def _names_in(tree) -> set[str]:
    """The names a syntax tree reads, imports or qualifies by attribute."""
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return named | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}


def test_the_oracles_stand_apart_from_the_engine_they_check():
    imports = {path.stem: _package_imports(path) for path in SRC.glob("*.py")}
    assert sorted(name for name, used in imports.items() if "oracles" in used and name != "oracles") == []
    assert imports["oracles"].isdisjoint({"coorbit", "representations"})
    engine = {"act", "_factors", "_acted_quad", "_acted_lin_amp", "_node_quadratics"}
    named = _names_in(ast.parse((SRC / "oracles.py").read_text(encoding="utf-8")))
    assert sorted(named & engine) == []
    assert imports["numerics"] == set()


def test_every_private_helper_has_a_caller_in_src():
    # a private function or class that only the tests name belongs in the tests;
    # its own definition does not count, so recursion is no caller
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")).body for path in SRC.glob("*.py")}
    statements = [(node, _names_in(node)) for body in modules.values() for node in body]
    helpers = [
        (stem, node)
        for stem, body in modules.items()
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and re.fullmatch(r"_[^_]\w*", node.name)
    ]
    unnamed = [
        f"{stem}.{node.name}"
        for stem, node in helpers
        if not any(node.name in names for other, names in statements if other is not node)
    ]
    assert unnamed == []


# the package's layers, lowest first: a module imports only modules before it
_LAYERS = ("numerics", "gaussian", "groups", "representations", "coorbit", "frames", "cli")


def test_the_package_imports_run_one_way():
    # an import inside a function counts: it runs the layers backwards as
    # surely as one at the top of the module
    imports = {path.stem: _package_imports(path) for path in SRC.glob("*.py") if path.stem != "__init__"}
    allowed = {name: set(_LAYERS[:i]) for i, name in enumerate(_LAYERS)}
    allowed["oracles"] = {"numerics", "gaussian", "groups"}
    assert sorted(imports) == sorted(allowed)
    assert {name: sorted(used - allowed[name]) for name, used in imports.items() if used - allowed[name]} == {}


def _resolves(root, path) -> bool:
    try:
        functools.reduce(getattr, path, root)
    except AttributeError:
        return False
    return True


def test_every_private_and_qualified_name_in_the_readme_resolves():
    # the README names helpers by hand: a backticked private helper (`_name`)
    # must exist in some module, and a name qualified by a module or a class
    # of the package (`coorbit._x`, `Class.attr`, `coorbit_lab.cli`) must
    # resolve; file names (`groups.py`) and config keys (`norm.p`) are neither
    modules = {name: importlib.import_module(f"coorbit_lab.{name}") for name in MODULES + ("cli",)}
    roots = {"coorbit_lab": importlib.import_module("coorbit_lab"), **modules}
    for module in modules.values():
        roots.update({k: v for k, v in vars(module).items() if isinstance(v, type) and v.__module__ == module.__name__})
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`([A-Za-z_][\w.]*)[`(]", text))
    private = sorted(n for n in names if re.fullmatch(r"_[a-z]\w*", n))
    qualified = sorted(n for n in names if n.split(".")[0] in roots and "." in n and not n.endswith(".py"))
    assert private and qualified
    assert [n for n in private if not any(hasattr(m, n) for m in modules.values())] == []
    assert [n for n in qualified if not _resolves(roots[n.split(".")[0]], n.split(".")[1:])] == []


# each kind's smallest useful config, and the modules its run must leave unloaded
_CLI_RUNS = {
    "verify-gaussian": (
        "[samples]\nclosed = 20\ndeterminant = 5\ngrid = 2\ndims = 1\n",
        ("coorbit", "frames", "oracles"),
    ),
    "rep-selftest": ("[suite]\ngroup = g5_3\nn_pairs = 20\n", ("coorbit", "frames", "oracles")),
    "density": ("[lattice]\ngroup = heisenberg\nn_points = 500\n", ("coorbit", "oracles")),
    "frame-sweep": (
        "[sweep]\neps_values = 0.9\n\n[estimate]\nlattice_radius = 2.0\ndict_halfrange = 1.0\n",
        ("coorbit", "oracles"),
    ),
}
_LOADED = (
    "import sys\n"
    "from coorbit_lab import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, ' '.join(sorted(m for m in sys.modules if m.startswith('coorbit_lab.'))))\n"
)


@pytest.mark.parametrize("kind", sorted(_CLI_RUNS))
def test_a_cli_run_loads_only_the_modules_its_kind_uses(tmp_path, kind):
    # the CLI imports the norm engine only for orbit-scan and coorbit-norm, and
    # the frame layer only for density and frame-sweep
    text, absent = _CLI_RUNS[kind]
    config = tmp_path / f"{kind}.cfg"
    config.write_text(f"[experiment]\nkind = {kind}\n\n{text}")
    argv = [sys.executable, "-c", _LOADED, kind, "--config", str(config), "--out", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    code, *loaded = proc.stdout.split()
    assert code in ("0", "2") and "coorbit_lab.cli" in loaded
    assert [m for m in loaded if m.removeprefix("coorbit_lab.") in absent] == []


def test_a_malformed_coorbit_norm_config_exits_3_without_a_traceback(tmp_path):
    # a 3-entry f_quad for the 2-dimensional acting space of g5_3 shows only
    # once the run builds the state, after the lazy import of the norm engine
    config = tmp_path / "malformed.cfg"
    config.write_text("[experiment]\nkind = coorbit-norm\n\n[group]\nname = g5_3\n\n[state]\nf_quad = 1.0,1.0,1.0\n")
    argv = [sys.executable, "-m", "coorbit_lab.cli", "coorbit-norm", "--config", str(config), "--out", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("config error:") and "f_quad needs 2 entries" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_every_traced_benchmark_target_resolves():
    # the benchmark's tracer wraps these names by lookup; a renamed one would
    # fail only a traced benchmark run
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    if not path.is_file():
        pytest.skip("no perfbench/tracer.py in this checkout")
    spec = importlib.util.spec_from_file_location("_traced_targets", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, targets in tracer.TARGETS.items():
        module = importlib.import_module(f"coorbit_lab.{name}")
        for target in targets:
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(module, cls_name, None)
                found = isinstance(cls, type) and attr in cls.__dict__
            else:
                found = hasattr(module, target)
            if not found:
                missing.append(f"{name}.{target}")
    assert missing == []
