"""Static checks on the package source, standard library only: every
imported name is used, every ``__all__`` entry is defined, every
function parameter is read, every default-valued parameter is passed by
some call in the package or the benchmark, every autodiff op and every
public ``structural`` function has a caller in the package, every field
of a package dataclass outside ``cli`` and ``evaluation`` is read, only
``graph.py`` calls the ``DirectedGraph`` constructor, only
``training._guarded`` switches the per-op finite checks, only
``GraphormerConfig.pass_centers`` reads ``BUILD_PASS_PAIRS``, and the
README gives every config field's default."""
import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

from tapeformer.model import GraphormerParams
from tapeformer.text import EncodingParams
from tapeformer.training import SplitParams, TrainParams

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tapeformer"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree: ast.Module) -> list[str]:
    """The string entries of a top-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [e.value for e in node.value.elts]
    return []


def _bound(node: ast.AST) -> list[str]:
    """The names an import statement binds; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    return []


def _top_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        names.update(_bound(node))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_exported(tree))
    unused = [f"{path.name}:{node.lineno}: {name}"
              for node in ast.walk(tree) for name in _bound(node) if name not in used]
    assert not unused, f"imported but never used: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_is_defined(path):
    tree = _parse(path)
    missing = sorted(set(_exported(tree)) - _top_level_names(tree))
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


# parameters kept only to share another class's interface, by
# (function qualname, parameter): FusedMlp is called like GraphormerModel
SHARED_INTERFACE = {
    ("FusedMlp.build_centers", "data"),
    ("FusedMlp.build_centers", "centers"),
    ("FusedMlp.build_centers", "seed"),
    ("FusedMlp.logits_for_centers", "seed"),
}


def _functions(tree: ast.Module):
    """(qualname, node) of every function and method, nested ones too."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def _unread_parameters(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualname, parameter) of each parameter its function never reads;
    a method's ``self``/``cls`` and dunder protocol methods are exempt."""
    unread = []
    for qualname, fn in _functions(tree):
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        if "." in qualname and params[:1] in (["self"], ["cls"]):
            params = params[1:]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(qualname, p) for p in params if p not in read]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = [f"{path.name}: {fn}({p})" for fn, p in _unread_parameters(_parse(path))
              if (fn, p) not in SHARED_INTERFACE]
    assert not unread, f"parameters never read: {unread}"


def _called_from(module: str, among) -> set[str]:
    """Names of ``module``'s functions called in the package modules
    ``among``: as ``<alias>.<name>(`` for an imported alias of the module,
    by a name imported from it, or by bare name inside the module itself."""
    called: set[str] = set()
    for path in among:
        tree = _parse(path)
        aliases, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                names.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                aliases.update(a.asname or a.name for a in node.names if a.name == module)
        if path.stem == module:
            names.update(_top_level_names(tree))
        for f in (node.func for node in ast.walk(tree) if isinstance(node, ast.Call)):
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                if f.value.id in aliases:
                    called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in names:
                called.add(f.id)
    return called


def test_every_autodiff_op_has_a_caller():
    """An engine op (an ``__all__`` function of ``autodiff`` that records
    with ``_make(``) is called as ``<autodiff module alias>.<op>(`` or by
    its imported name in some other package module: an op no model code
    calls only adds code."""
    engine = SRC / "autodiff.py"
    tree = _parse(engine)
    source = engine.read_text(encoding="utf-8")
    ops = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
           and node.name in _exported(tree) and "_make(" in ast.get_source_segment(source, node)}
    called = _called_from("autodiff", [path for path in MODULES if path != engine])
    assert {"matmul", "linear", "attention", "cross_entropy"} <= ops
    assert sorted(ops - called) == [], "autodiff ops that no package module calls"


def test_every_structural_encoder_has_a_caller():
    """Every ``__all__`` function of ``structural`` is called somewhere in
    the package, in another module or by another function of its own: an
    encoder that a newer one superseded fails here instead of lingering
    with only its tests to call it."""
    tree = _parse(SRC / "structural.py")
    functions = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in _exported(tree)}
    assert {"bfs_spd", "build_path_features", "local_adjacency"} <= functions
    assert sorted(functions - _called_from("structural", MODULES)) == [], \
        "structural functions that no package code calls"


def test_only_the_graph_module_builds_a_graph():
    """``DirectedGraph`` derives its degrees from the out-CSR it is given,
    and sampling reads its rows as sorted and distinct; ``from_edge_list``
    and ``from_out_csr`` hand it an out-CSR that holds these invariants,
    so no other module or benchmark file calls the constructor itself."""
    callers = [path.name for path in [*MODULES, *sorted((ROOT / "perfbench").glob("*.py"))]
               if path != SRC / "graph.py"
               and any(isinstance(node, ast.Call) and "DirectedGraph" in (
                   getattr(node.func, "id", None), getattr(node.func, "attr", None))
                       for node in ast.walk(_parse(path)))]
    assert callers == [], "modules that call DirectedGraph( outside graph.py"


def test_only_the_guarded_forward_switches_finite_checks():
    """Per-op finite checks go off, and back on for the replay of a
    non-finite result, in ``training._guarded`` alone, so training and
    prediction share one protocol."""
    def calls(tree):
        return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and "finite_checks" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))}

    everywhere = {(path.name, line) for path in MODULES for line in calls(_parse(path))}
    guarded = {("training.py", line) for qualname, fn in _functions(_parse(SRC / "training.py"))
               if qualname == "_guarded" for line in calls(fn)}
    assert guarded and sorted(everywhere - guarded) == [], "finite_checks( outside _guarded"


def test_only_pass_centers_reads_the_pair_budget():
    """``BUILD_PASS_PAIRS`` becomes a center count in
    ``GraphormerConfig.pass_centers`` alone, so build passes and predict
    chunks are sized by one rule."""
    def reads(tree):
        return {node.lineno for node in ast.walk(tree)
                if isinstance(getattr(node, "ctx", None), ast.Load)
                and "BUILD_PASS_PAIRS" in (getattr(node, "id", None), getattr(node, "attr", None))}

    everywhere = {(path.name, line) for path in MODULES for line in reads(_parse(path))}
    rule = {("model.py", line) for qualname, fn in _functions(_parse(SRC / "model.py"))
            if qualname == "GraphormerConfig.pass_centers" for line in reads(fn)}
    assert rule and sorted(everywhere - rule) == [], "BUILD_PASS_PAIRS read outside pass_centers"


def test_every_structural_and_model_field_is_read():
    """Every field of a dataclass in a package module is read as
    ``<value>.<field>`` somewhere in the package or the benchmark: a field
    that nothing reads is carried for nobody. The report and config
    dataclasses of ``evaluation`` and ``cli`` are read through ``asdict``
    and ``getattr``, so those two modules are out of scope here."""
    read = {node.attr for path in [*MODULES, *sorted((ROOT / "perfbench").glob("*.py"))]
            for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in MODULES:
        if path.name in ("cli.py", "evaluation.py"):
            continue
        for cls in _parse(path).body:
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
                    for d in (getattr(d, "func", d) for d in cls.decorator_list)):
                unread += [f"{path.name}: {cls.name}.{f.target.id}" for f in cls.body
                           if isinstance(f, ast.AnnAssign) and f.target.id not in read]
    assert unread == [], "dataclass fields that no package or benchmark code reads"


# default-valued parameters that no program call passes yet, by
# (function qualname, parameter), each with the reason it stays
UNPASSED_DEFAULTS = {
    # acceptance criterion 5 reads the per-layer attention maps through it
    ("GraphormerModel.forward", "capture"),
    # the per-source fusion weights, for a checkpoint inspector (ROADMAP item 4b)
    ("FusionLayer.fuse", "return_weights"),
}


def _defaulted(tree: ast.Module):
    """(qualname, positional parameter names, default-valued parameter
    names) of every module-level function and every method of a
    top-level class that has a default-valued parameter. A method's
    positional names leave out the ``self`` or ``cls`` a call binds, a
    constructor's qualname is its class's, and nested closures are left
    out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                       if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members = [(node.name, node)]
        else:
            continue
        for qualname, fn in members:
            a = fn.args
            positional = [p.arg for p in (*a.posonlyargs, *a.args)]
            if "." in qualname and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                           for d in fn.decorator_list):
                positional = positional[1:]  # self or cls, bound by the call
            named = positional[len(positional) - len(a.defaults):] if a.defaults else []
            named += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if named:
                yield qualname.removesuffix(".__init__"), positional, named


def _calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in the package and the benchmark, by the called name:
    ``f`` for ``f(...)`` and ``x.f(...)``, ``C`` for ``C(...)``."""
    calls: dict[str, list[ast.Call]] = {}
    for path in [*MODULES, *sorted((ROOT / "perfbench").glob("*.py"))]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, positional: list[str], param: str) -> bool:
    """Does ``call`` pass ``param``, by keyword, by position or through a
    ``*``/``**`` unpacking?"""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return param in positional[:len(call.args)]


def test_every_default_is_passed_somewhere():
    """A default-valued parameter that no call in the package or the
    benchmark passes is a constant with a knob on it: make it a constant.
    Calls match by name alone, so a name two functions share keeps both
    alive; tests do not count as callers."""
    calls = _calls_by_name()
    unpassed = []
    for path in MODULES:
        for qualname, positional, named in _defaulted(_parse(path)):
            site = calls.get(qualname.rsplit(".", 1)[-1], [])
            unpassed += [f"{path.name}: {qualname}.{p}" for p in named
                         if (qualname, p) not in UNPASSED_DEFAULTS
                         and not any(_passes(c, positional, p) for c in site)]
    assert not unpassed, f"default-valued parameters no call passes: {unpassed}"


@pytest.mark.parametrize("params", [GraphormerParams, TrainParams, EncodingParams, SplitParams],
                         ids=lambda cls: cls.__name__)
def test_readme_gives_every_config_default(params):
    """Each field reads `name` (<its default as JSON> somewhere in the README."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [f"`{f.name}` ({json.dumps(f.default)}" for f in dataclasses.fields(params)
               if not re.search(rf"`{f.name}`\s*\({re.escape(json.dumps(f.default))}", readme)]
    assert not missing, f"README.md does not give these defaults: {missing}"
