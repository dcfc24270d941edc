"""Package structure: every public name is defined where it is exported
and has a caller, every optional parameter of a public function is passed
by some caller, quadrature lives in two modules with one panel rule, no
module imports scipy when it is itself imported, and every attribute the
benchmark tracer wraps exists.

A name in a module's __all__ must be defined by that module, not re-exported
from another, and used somewhere in the package or in the acceptance suite:
as a name, an attribute or an import.  A public function that only its own
tests call is dead weight; wire it in or delete it together with its tests.
The same holds for a default that no caller there overrides.
"""

import ast
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "grazekit").glob("*.py"))
USERS = SOURCES + [ROOT / "tests" / "test_acceptance.py"]


def public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return names


def test_every_public_name_is_defined_where_exported():
    strays = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        strays += [f"{path.stem}.{name}" for name in public_names(tree)
                   if name not in defined_names(tree)]
    assert strays == []


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return names


def test_every_public_name_has_a_caller():
    used = set()
    for path in USERS:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    orphans = [f"{path.stem}.{name}" for path in SOURCES
               for name in public_names(ast.parse(path.read_text(
                   encoding="utf-8")))
               if name not in used]
    assert orphans == []


def public_functions(path):
    """The functions a module exports: (stem.name, FunctionDef) pairs."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exported = set(public_names(tree))
    return [(f"{path.stem}.{node.name}", node) for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in exported]


def optional_parameters(node):
    """A function's parameters that have a default, each with its
    position (None for keyword-only ones)."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    return params + [(a.arg, None) for a, d in zip(node.args.kwonlyargs,
                                                   node.args.kw_defaults)
                     if d is not None]


def called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def passed_parameters(trees):
    """name -> {"positional": largest positional count, "keywords": names},
    or "all" where a call unpacks * or ** arguments or the name is used as
    a value (a converter, a signature the CLI reads)."""
    passed = {}
    for tree in trees:
        callees = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = called_name(node.func)
            if name is None:
                continue
            callees.add(id(node.func))
            if passed.get(name) == "all":
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                passed[name] = "all"
                continue
            seen = passed.setdefault(name, {"positional": 0,
                                            "keywords": set()})
            seen["positional"] = max(seen["positional"], len(node.args))
            seen["keywords"].update(k.arg for k in node.keywords)
        for node in ast.walk(tree):
            if id(node) not in callees and (
                    isinstance(node, ast.Name) and isinstance(node.ctx,
                                                              ast.Load)
                    or isinstance(node, ast.Attribute)):
                passed[called_name(node)] = "all"
    return passed


# Optional parameters no caller in the package or the acceptance suite
# passes, each kept for a reason of its own.
UNPASSED_ALLOWED = {
    # the console entry point reads sys.argv; tests pass argv
    "cli.main": {"argv"},
    # the independent z-space quadrature route a kernel test compares the
    # closed-form mismatch report against
    "kernels.coulomb_mismatch_report": {"cross_check_pair"},
}


def test_every_optional_parameter_has_a_caller():
    # a default that every caller keeps is a switch nobody flips: make it a
    # constant, or pass it somewhere it matters
    passed = passed_parameters(ast.parse(path.read_text(encoding="utf-8"))
                               for path in USERS)
    dead = []
    for path in SOURCES:
        for qualname, node in public_functions(path):
            seen = passed.get(node.name, {"positional": 0, "keywords": set()})
            if seen == "all":
                continue
            dead += [f"{qualname}({arg})"
                     for arg, pos in optional_parameters(node)
                     if arg not in seen["keywords"]
                     and (pos is None or pos >= seen["positional"])
                     and arg not in UNPASSED_ALLOWED.get(qualname, ())]
    assert dead == []


def scipy_imports(nodes):
    """The scipy names that the import statements among nodes bring in."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names
                        if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "scipy":
            yield from (f"{node.module}.{a.name}" for a in node.names)


def imports_scipy_integrate(tree):
    return any(name.startswith("scipy.integrate")
               for name in scipy_imports(ast.walk(tree)))


def import_time_nodes(tree):
    """Every node that runs when the module is imported: all of them but
    the bodies of functions, which run only when called."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_import_time():
    # scipy costs about 0.5 s and 50 MB to import; rate-sweep,
    # verify-kernels, verify-geometry and fit-rate never call it, so it is
    # imported inside the functions that do
    eager = {path.stem: sorted(scipy_imports(import_time_nodes(ast.parse(
        path.read_text(encoding="utf-8"))))) for path in SOURCES}
    assert {stem: names for stem, names in eager.items() if names} == {}


def test_only_kernels_and_verifiers_integrate():
    # kernels runs the Coulomb cross-check's z-space quad, verifiers the
    # Gronwall ODE; every other beta-integral is a closed form from
    # kernels.window_moments or a sum over kernels.theta_rule, the one
    # Gauss-Legendre panel rule
    users = sorted(path.stem for path in SOURCES if imports_scipy_integrate(
        ast.parse(path.read_text(encoding="utf-8"))))
    assert users == ["kernels", "verifiers"]
    rules = sorted(path.stem for path in SOURCES
                   if "leggauss" in path.read_text(encoding="utf-8"))
    assert rules == ["kernels"]


def test_benchmark_tracer_wraps_and_restores_every_name(monkeypatch):
    # perfbench/tracer.py wraps grazekit attributes by name, so a renamed or
    # deleted one stops every traced benchmark run with an AttributeError
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_mod)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer("tier1")
    try:
        tracer_mod.instrument(tracer)
        wrapped = list(tracer._originals)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in wrapped)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original
               for owner, attr, original in wrapped)


def test_runs_call_the_step_the_tracer_wraps(monkeypatch):
    # the tracer times boltzmann.step and landau.step by replacing the
    # module attributes; a run loop that bound step at import would bypass
    # the wrappers and read zero traced boltzmann.* and landau.* metrics
    import numpy as np

    from grazekit import boltzmann, landau
    from grazekit.kernels import GrazingKernel
    from grazekit.particles import sample_initial

    cloud = sample_initial({"name": "isotropic-gaussian"}, 16,
                           np.random.default_rng(0))
    configs = {
        boltzmann: boltzmann.BoltzmannConfig(
            GrazingKernel(-0.5, 0.6, np.pi / 8), n=16, dt=0.05, T=0.2),
        landau: landau.LandauConfig(-1.0, n=16, dt=0.05, T=0.2, m=2)}
    for module, config in configs.items():
        calls = []
        original = module.step

        def counting(cloud, config, rng, original=original, calls=calls):
            calls.append(cloud.step_index)
            return original(cloud, config, rng)

        monkeypatch.setattr(module, "step", counting)
        traj = module.run(config, cloud, schedule=[0.1, 0.2])
        assert calls == [0, 1, 2, 3]
        assert [c.step_index for c in traj.clouds] == [2, 4]
