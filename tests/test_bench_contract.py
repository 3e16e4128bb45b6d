"""The benchmark's traced run (``bench/tracing.py``) wraps library
functions by the names their callers bind.  A refactor that unbinds one
of those names breaks ``bench/run.py --trace 1`` on every workload, so
it has to fail here first."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import bregman_em.cli  # noqa: F401  (install looks the module up)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_shims_wrap_and_restore_every_name(tmp_path, capsys):
    tracing = load_tracing()
    cli = sys.modules["bregman_em.cli"]
    names = [(path, attr) for path, attr, *_ in tracing.SHIMS]
    names.append(("bregman_em.cli", "_write_cli_trace"))
    before = {name: tracing._resolve(name[0]).__dict__[name[1]]
              for name in names}

    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        for (path, attr), original in before.items():
            assert tracing._resolve(path).__dict__[attr] is not original
        # a traced --trace run counts the bytes of the file it wrote
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "schema_version": "1", "kind": "rd",
            "payload": {"p_x": [0.5, 0.5],
                        "distortion": [[0.0, 1.0], [1.0, 0.0]],
                        "level": 0.1}}))
        trace = tmp_path / "trace.csv"
        assert cli.main(["run", str(problem), "--trace", str(trace)]) == 0
    finally:
        tracing.uninstall(saved)
    capsys.readouterr()

    for (path, attr), original in before.items():
        assert tracing._resolve(path).__dict__[attr] is original
    assert "print" not in cli.__dict__
    assert recorder.counts["cli.trace_bytes"] == os.path.getsize(trace)
    assert recorder.counts["rate_distortion.rounds"] >= 1
