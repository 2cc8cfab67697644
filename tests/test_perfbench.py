"""The benchmark's tracer rebinds names inside the package, so renaming one
of them fails here, on every Python version, and not only in a traced run."""

import importlib.util
import sys
from pathlib import Path

import tightlp
import tightlp.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py adds perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    tracer = bench.tracing.Tracer(tightlp, bench.make_api(tightlp))
    originals = [getattr(obj, attr) for obj, attr, _, _ in tracer.targets]
    path = tmp_path / "prog.lp"
    path.write_text("a :- b. b :- a.\n")
    tracer.install()
    try:
        for (obj, attr, _, _), fn in zip(tracer.targets, originals):
            assert getattr(obj, attr) is not fn, attr
        assert tightlp.cli.run(["tight", str(path), "--on", "a, b"]) == 0
    finally:
        tracer.uninstall()
    for (obj, attr, _, _), fn in zip(tracer.targets, originals):
        assert getattr(obj, attr) is fn, attr
    assert capsys.readouterr().out == "not tight on {a, b}; cycle: a -> b -> a\n"
    spans, _ = tracer.take()
    assert [s[0] for s in spans] == ["syntax.parse", "tightness.graph", "tightness.cycle"]
