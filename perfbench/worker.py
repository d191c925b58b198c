"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is `probe` (set-up only), `plain` (set-up, timed round, checks) or
`traced` (the same with spans around mlz's public functions).  The last
line of stdout is one JSON object; run.py starts this script and reads it.
Set-up is importing mlz and generating the inputs from the seed; it ends
at `ready_at`, on the system-wide monotonic clock that run.py also reads.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    sys.path.insert(0, str(SRC))
    import mlz

    if Path(mlz.__file__).resolve().parent != SRC / "mlz":
        print(f"worker: mlz imported from {mlz.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work = WORKLOADS[workload](seed, OUT)
    ready_at = time.monotonic()
    if mode == "probe":
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    work.run(tracer)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        layers = {**tracer.metrics(), **work.layer_extras()}
        tracer.write(OUT / f"{workload}.spans")
    print(json.dumps({
        "ready_at": ready_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": maxrss_kb,
        "item_ms": work.item_ms,
        "attempted": work.attempted,
        "failed": work.failed,
        "digest": work.digest(),
        "errors": work.check(),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
