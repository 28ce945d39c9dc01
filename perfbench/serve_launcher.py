"""Start a synthesis server for the ``edit_served`` workload.

    python3 perfbench/serve_launcher.py [--trace-out FILE] -- <server args>

Everything after ``--`` goes to ``repro.serving.__main__.main``.  With
``--trace-out`` the layer tracer is installed first and its spans are
written to FILE once the server has drained (stop it with SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if trace_out is not None:
        import spans

        tracer = spans.install(spans.Tracer())
    from repro.serving.__main__ import main as serve

    code = serve(argv)
    if tracer is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
