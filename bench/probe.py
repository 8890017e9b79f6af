"""Child-process entry points of the benchmark; ``run.py`` starts them.

    probe.py setup <workload> <seed> <workdir> <K> <stream_K> <drives>
        One fresh-process set-up: import behaviorcloak (timed, with the
        number of modules it loads), build the workload's inputs (for
        ``cli`` also write its input files), then print one JSON line.
    probe.py cli-main <spans.npz> <behaviorcloak CLI arguments...>
        Run ``behaviorcloak.cli.main`` with the layer wrappers installed and
        save the spans for the parent to merge.

Only ``os``, ``sys`` and ``time`` are loaded before the timed import, so the
module count covers what ``import behaviorcloak`` itself pulls in.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def setup(workload, seed, workdir, K, stream_K, drives) -> int:
    before = len(sys.modules)
    t0 = time.perf_counter()
    import behaviorcloak

    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - before
    import json
    from pathlib import Path

    import workloads

    sizes = workloads.Sizes(K=int(K), stream_K=int(stream_K), stream_drives=int(drives))
    workloads.WORKLOADS[workload](behaviorcloak, int(seed), sizes, Path(workdir))
    print(json.dumps({"import_s": import_s, "import_modules": modules}), flush=True)
    return 0


def cli_main(spans_path, *argv) -> int:
    import behaviorcloak.cli

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            return behaviorcloak.cli.main(list(argv))
    finally:
        tracer.uninstall()
        tracer.save(spans_path)


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "cli-main": cli_main}[command](*rest))
