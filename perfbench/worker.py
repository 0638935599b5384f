"""One workload process, started fresh by ``run.py`` for each sample.

Set-up runs from launch to ready: the interpreter, importing numpy and
katolab, and writing and parsing the configs. A ``probe`` exits there; a
``pass`` then runs the workload once, optionally traced, and checks it. The
result goes to ``<work-dir>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _blas() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"blas": f"{blas.get('name')} {blas.get('version')}"}
    except (TypeError, KeyError):
        return {"blas": "unknown"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "pass"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--offset", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() of the parent just before launch")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans-out", help="trace the pass; write its spans here")
    args = ap.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, root)
    import numpy as np
    import katolab
    import katolab.cli  # noqa: F401  (the import is part of set-up)
    src = os.path.join(root, "src", "katolab")
    if os.path.dirname(os.path.abspath(katolab.__file__)) != src:
        sys.exit(f"katolab was imported from {katolab.__file__}, not {src}")
    from perfbench import spans, workloads

    wl = workloads.WORKLOADS[args.workload]
    paths = workloads.prepare(wl, args.offset, args.work_dir)
    result = {"setup_s": time.monotonic() - args.launched}

    if args.mode == "probe":
        result.update(numpy=np.__version__, **_blas())
    else:
        tracer = spans.Tracer() if args.spans_out else None
        result.update(workloads.run_pass(wl, args.offset, args.work_dir, paths,
                                         tracer))
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer.spans)
            with open(args.spans_out, "w") as fh:
                json.dump([s.to_dict() for s in tracer.spans], fh)
    with open(os.path.join(args.work_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
