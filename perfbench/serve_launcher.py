"""Traced ``gpu-aco serve``: install the benchmark's timing wrappers, then
hand over to the CLI's own ``serve`` command in this same process.

    python3 perfbench/serve_launcher.py LAYERS.json TRACE.json -- --port 0 [serve flags]

The process layout is that of a plain ``gpu-aco serve``: one process, the
CLI's event loop and worker threads.  Wrappers start switched off and
``SIGUSR1`` switches them on, so one server serves an untraced and then a
traced window.  When the CLI returns (after its
graceful drain on SIGINT), the per-layer values are written to
``LAYERS.json`` and the spans, as chrome-trace JSON, to ``TRACE.json``.
"""

from __future__ import annotations

import json
import signal
import sys

from harness import require_source


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: serve_launcher.py LAYERS.json TRACE.json -- [serve flags]",
              file=sys.stderr)
        return 2
    layers_path, trace_path, serve_args = argv[0], argv[1], argv[3:]
    require_source()
    from repro.cli import main as cli_main
    from tracing import SpanRecorder, engine_layer_metrics, installed

    rec = SpanRecorder()
    rec.enabled = False
    signal.signal(signal.SIGUSR1, lambda *_: setattr(rec, "enabled", True))
    with installed(rec, serve=True):
        code = cli_main(["serve", *serve_args])
    rec.enabled = False
    layers = engine_layer_metrics(rec)
    decode = rec.layer_times().get("serve.protocol.decode", {})
    layers["serve.protocol.decode_s"] = decode.get("total", 0.0)
    with open(layers_path, "w", encoding="utf-8") as fh:
        json.dump(layers, fh)
    rec.write_chrome_trace(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
