"""Launch ``repro serve`` for the benchmark, optionally with layer tracing.

Usage::

    python3 perfbench/daemon_main.py [--trace-out SPANS.jsonl] serve ARGS...

Runs the program's own command line (``repro.cli.main``) in this
process.  With ``--trace-out`` the layer entry points are wrapped
(:func:`perfbench.spans.install`) and the spans are written to the file
when the daemon shuts down; the header records how many of them, and
which counts, belong to the restore.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def main(argv) -> int:
    """Run the daemon; returns its exit code."""
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]

    import repro.service.checkpoint as checkpoint
    from repro.cli import main as cli_main

    recorder = None
    if trace_out is not None:
        from perfbench import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    marks = {"restore_spans": 0, "restore_counts": {}}
    original = checkpoint.restore_app

    def marked_restore(*args, **kwargs):
        app = original(*args, **kwargs)
        if recorder is not None:
            marks["restore_spans"] = len(recorder.spans)
            marks["restore_counts"] = dict(recorder.counts)
        return app

    checkpoint.restore_app = marked_restore
    code = cli_main(argv)
    if recorder is not None:
        recorder.dump(trace_out, marks)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
