"""One closed-loop client: a single process and thread that runs the job list.

    python3 perfbench/worker.py setup         # time import + first-call calibration
    python3 perfbench/worker.py plain < jobs  # run the jobs untraced
    python3 perfbench/worker.py trace < jobs  # run them under the span shim

``setup`` prints {"setup_s", "probe"}.  The other modes read a JSON job list
on stdin, start each job only after the previous one has finished, and print
one JSON line per job ({"seconds", "probe", "output", "error"}) and then a
summary line ({"peak_rss_mb", "layers"}).  Calibration, imports and
the tracer's installation happen before the clock starts.  "probe" is the
mean time of a fixed pure-Python loop sampled around the timed step (see
``Speedometer``); the parent divides by it to cancel the machine's changes
of speed.
"""

import json
import resource
import signal
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def probe_loop():
    """A fixed pure-Python loop of a few tens of microseconds."""
    table = {}
    for i in range(300):
        table[i & 63] = table.get(i & 63, 0) + i * i
    return table


class Speedometer:
    """Samples how fast the machine runs Python while one step is timed.

    Before the step, ``PRE`` probes of ``probe_loop`` are timed; during it, a
    timer signal times one more probe every ``INTERVAL`` seconds (unless
    ``sampling`` is off).  ``probe`` is the mean probe time and ``spent``
    the probe time that fell inside the step, which the caller subtracts.
    """

    PRE = 10
    INTERVAL = 0.005

    def __init__(self, sampling=True):
        self.interval = self.INTERVAL if sampling else None
        self.total = 0.0
        self.count = 0
        for _ in range(self.PRE):
            self._probe()
        self.pre_total = self.total

    def _probe(self, *_):
        start = time.perf_counter()
        probe_loop()
        self.total += time.perf_counter() - start
        self.count += 1

    def __enter__(self):
        if self.interval:
            signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.probe = self.total / self.count
        self.spent = self.total - self.pre_total
        return False


def setup():
    sys.path.insert(0, str(SRC))
    with Speedometer() as speed:
        start = time.perf_counter()
        import aztecgf.cli  # noqa: F401  (what every CLI invocation imports)
        from aztecgf import stats

        stats._ensure_calibrated()
        seconds = time.perf_counter() - start
    return {"setup_s": seconds - speed.spent, "probe": speed.probe}


def run(jobs, traced):
    import jobs as bench_jobs
    from aztecgf import stats

    stats._ensure_calibrated()
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer().install()
    clock = time.perf_counter
    results = []
    for job in jobs:
        output = error = None
        # The traced pass reports self times, which probes would inflate.
        with Speedometer(sampling=not traced) as speed:
            start = clock()
            try:
                output = bench_jobs.run(job)
            except Exception as exc:  # a failed job is counted, the client goes on
                error = f"{type(exc).__name__}: {exc}"
            seconds = clock() - start
        results.append({"seconds": seconds - speed.spent, "probe": speed.probe,
                        "output": output, "error": error})
    for line in results:
        print(json.dumps(line))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"peak_rss_mb": peak_kb / 1024,
            "layers": tracer.metrics() if tracer else None}


def main():
    mode = sys.argv[1]
    if mode == "setup":
        summary = setup()
    else:
        summary = run(json.load(sys.stdin), traced=mode == "trace")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
