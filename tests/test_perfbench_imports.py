"""The benchmark under perfbench/ is frozen, so the package must keep every
name it uses: the names it imports, and the (layer, function) pairs the layer
tracer reads its per-layer metrics from.  Checked statically with ast, without
running the benchmark."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _str_pair(nodes):
    if len(nodes) == 2 and all(isinstance(n, ast.Constant) and isinstance(n.value, str)
                               for n in nodes):
        return nodes[0].value, nodes[1].value
    return None


def test_perfbench_imports_resolve():
    paths = sorted(PERFBENCH.glob("*.py"))
    assert paths, f"no benchmark sources found under {PERFBENCH}"
    missing, seen = [], 0
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("varchenko"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    seen += 1
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
    assert seen, "the benchmark imports nothing from varchenko"
    assert not missing, f"benchmark imports that no longer resolve: {missing}"


def test_layertrace_pairs_name_public_functions():
    tree = _parse(PERFBENCH / "layertrace.py")
    layers = next(ast.literal_eval(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    pairs = set()
    for node in ast.walk(tree):
        # ("layer", "fn") tuples, fn_s["layer", "fn"] subscripts and idx("layer", "fn") calls
        pair = (_str_pair(node.elts) if isinstance(node, ast.Tuple)
                else _str_pair(node.args) if isinstance(node, ast.Call) else None)
        if pair is not None and pair[0] in layers:
            pairs.add(pair)
    assert len(pairs) >= 10, f"too few (layer, function) pairs found: {sorted(pairs)}"
    bad = []
    for layer, fname in sorted(pairs):
        module = importlib.import_module(f"varchenko.{layer}")
        fn = getattr(module, fname, None)
        if (fname.startswith("_") or not callable(fn) or isinstance(fn, type)
                or getattr(fn, "__module__", None) != module.__name__):
            bad.append(f"{layer}.{fname}")
    assert not bad, f"layertrace reads functions that are not public in their layer: {bad}"
