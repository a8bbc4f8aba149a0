"""One run of one workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC holds ``calls`` (argv lists, ``--out`` included), ``trace`` and
``result`` (where to write the outcome). The interpreter start and the
import of ``magnonlab.cli`` happen before the clock starts, and nothing
else is imported before them, so ``setup_done`` (``time.monotonic()``)
ends a set-up sample just like a bare ``import magnonlab.cli``. ``wall_s``
runs from there to the return of the last call, i.e. the last manifest
written. With ``trace`` the tracer is installed before the clock starts
and its spans are written to ``trace.json`` beside the result afterwards.
"""

import sys
import time


def main(spec_path):
    import magnonlab.cli

    setup_done = time.monotonic()
    import json
    import traceback
    from pathlib import Path

    import magnonlab
    from fingerprint import fingerprint  # this script's directory is on sys.path

    spec = json.loads(Path(spec_path).read_text())

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(magnonlab).install()
    outcomes = []
    start = time.perf_counter()
    for argv in spec["calls"]:
        try:
            rc = magnonlab.cli.main(argv)
            outcomes.append({"argv": argv, "rc": rc, "error": None})
        except (Exception, SystemExit) as err:  # a failed call is counted, not fatal
            outcomes.append({"argv": argv, "rc": None,
                             "error": "".join(traceback.format_exception(err))})
    wall = time.perf_counter() - start
    result = {"wall_s": wall, "setup_done": setup_done, "calls": outcomes,
              "fingerprint": fingerprint(), "module": magnonlab.__file__}
    if tracer is not None:
        tracer.uninstall()
        Path(spec["result"]).with_name("trace.json").write_text(
            json.dumps(tracer.record()))
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
