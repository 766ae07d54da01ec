"""The benchmark's contract with the program.

`perfbench/bench_trace.py` wraps the public functions named in its TARGETS,
and `perfbench/run.py`'s IVF probe calls `ragner.vector_index` directly. A
renamed or deleted name there makes the benchmark's output unusable, so
these tests read both files (never import or change them) and check that
every name they use still exists and is called the way they call it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from ragner import vector_index as vi

from test_cli import make_project, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def module_literal(path: Path, name: str):
    """The literal value of the module-level assignment to `name` in `path`."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def resolves(target: str) -> bool:
    """Whether a dotted `module.function` or `module.Class.method` exists in ragner."""
    module, *attrs = target.split(".")
    obj = importlib.import_module(f"ragner.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_trace_target_resolves():
    targets = module_literal(PERFBENCH / "bench_trace.py", "TARGETS")
    ivf_builds = module_literal(PERFBENCH / "bench_trace.py", "IVF_BUILDS")
    assert [t for t in targets if t not in ivf_builds and not resolves(t)] == []
    # any one IVF build entry point is enough to time the IVF build
    assert any(resolves(t) for t in ivf_builds)


def test_ivf_probe_names_resolve_and_run(tmp_path):
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    [probe] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_ivf_probe"]
    used = {n.attr for n in ast.walk(probe)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "vi"}
    assert used and all(hasattr(vi, name) for name in used)

    ns = make_project(tmp_path)
    run(["-c", ns.cfg, "ingest"])
    run(["-c", ns.cfg, "index"])
    flat = vi.load_index(ns.out / "store" / "word_index.bin")
    assert flat.matrix.shape == (len(flat.sentence_ids), flat.dim) == (len(flat.words), flat.dim)
    # as _ivf_probe calls it: nlist, kmeans_iters and seed by position
    ivf = vi.ivf_from_matrix(flat.matrix, flat.sentence_ids, flat.words,
                             vi.default_nlist(len(flat)), 20, 7)
    query = flat.matrix[0]
    for index in (flat, ivf):
        hits = index.search(query, 3)
        assert hits and hits[0].record_id == 0
        assert all(isinstance(h.record_id, int) for h in hits)
