"""One benchmark sample, run in a fresh interpreter.

Every sample gets its own process because ``lattice.get_engine`` keeps a
process-wide memo of cube weights: a warm process measures a different
program (a repeated in-process ``verify`` pass ran about 10% faster).

Usage: ``python3 perfbench/worker.py SPEC_JSON``, where SPEC_JSON holds
``src`` (the directory holding the latcoh package), ``graphs`` (files to
read during set-up), ``calls`` (CLI argument lists, run in order through
``latcoh.cli.main``), ``setup_only``, ``label``, and ``spans`` (a file to
append the pass's spans to, which turns tracing on).  Prints one JSON line
with the set-up timestamp and its host-speed samples, the pass's wall and
CPU time and host-speed samples, peak RSS, and each call's exit code and
stdout.
"""

import contextlib
import gc
import io
import json
import marshal
import resource
import signal
import sys
import time

CALIB_PERIOD = 0.5       # seconds between host-speed samples during a pass
CALIB_LOOPS = 25000      # one sample takes about 10 ms
SETUP_CALIB = 5          # calibrate_setup() samples every worker takes


def calibrate() -> float:
    """Seconds taken by a fixed loop in the style of latcoh's inner loops
    (tuple keys, dict lookups, int arithmetic): a sample of host speed.

    The collector is off during the sample, so a collection the program's
    own heap has made due does not count as host slowness."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    memo = {}
    for i in range(CALIB_LOOPS):
        key = (i & 1023, i & 7)
        acc += memo.get(key, i) * 3 % 7
        memo[key] = acc
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def synthetic_module() -> bytes:
    """Marshalled code of a fixed module of 150 small functions and
    classes.  It is made here, not read from latcoh, so work a change moves
    into latcoh's import time is never calibrated away."""
    source = "".join(
        "def f%d(a, b=%d, *c, **d):\n    return {'k': [a, b, c, d]}\n"
        "class C%d:\n    z = %d\n    def m(self):\n        return self.z\n"
        % (i, i, i, i) for i in range(150))
    return marshal.dumps(compile(source, "<calibrate>", "exec"))


def calibrate_setup(blob) -> float:
    """Seconds taken to unmarshal and run a fixed module: a sample of host
    speed at the work set-up does, which is mostly loading bytecode and
    creating functions and classes rather than running loops."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    exec(marshal.loads(blob), {})
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import latcoh
    from latcoh import cli

    for path in spec["graphs"]:
        with open(path, encoding="utf-8") as fh:
            latcoh.parse_graph(fh.read())
    # Set-up ends here: CLOCK_MONOTONIC is system-wide on Linux, so the
    # parent subtracts its own spawn timestamp from this one.
    t_ready = time.monotonic()
    blob = synthetic_module()
    result = {"t_ready": t_ready,
              "setup_calib": [calibrate_setup(blob) for _ in range(SETUP_CALIB)]}
    if spec["setup_only"]:
        print(json.dumps(result))
        return

    recorder = None
    if spec["spans"]:
        import spans
        recorder = spans.install(latcoh)

    # The host's speed drifts by tens of percent over seconds to minutes, so
    # a timer samples it all through the pass; the parent scales by it.
    calib = []
    calib_cpu = []

    def sample(signum, frame):
        c0 = time.process_time()
        calib.append(calibrate())
        calib_cpu.append(time.process_time() - c0)

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, CALIB_PERIOD, CALIB_PERIOD)
    calls = []
    wall = cpu = 0.0
    for argv in spec["calls"]:
        buf = io.StringIO()
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except Exception as exc:  # a raised pass is a failed pass, not a crash
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        calls.append({"argv": argv, "rc": code, "stdout": buf.getvalue(),
                      "error": error})

    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    # The samples ran inside the timed calls; take their time back out.
    wall -= sum(calib)
    cpu -= sum(calib_cpu)
    calib += [calibrate() for _ in range(2)]
    result.update(wall_s=wall, cpu_s=cpu, calls=calls, calib=calib,
                  rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if recorder is not None:
        result["layers"] = recorder.metrics()
        with open(spec["spans"], "a", encoding="utf-8") as fh:
            recorder.dump(fh, spec["label"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
