"""psforge benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a psforge source checkout; psforge is imported and
executed from ./src. With --trace 0 the workload is timed untraced and the
end-to-end metrics are printed; with --trace 1 a separate traced run gives
the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The line before it
holds the machine/version record and the raw samples. See README.md.

Load model: one caller, closed loop, in this process. Each psforge
command or library call starts only after the previous one has returned;
psforge runs with one worker thread (PSFORGE_THREADS=1), and nothing
runs beside it but, between iterations, the fresh interpreters that time
`import psforge`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "oracle_err": "1"}


class CommandTimeout(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args, log_path, timeout):
    """Run `python3 args...` to completion. Returns (exit code, wall s)."""
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args],
                             child_env(),
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                           (os.POSIX_SPAWN_DUP2, fd, 2)])
    finally:
        os.close(fd)
    expired = []

    def on_alarm(signum, frame):
        expired.append(True)
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status = os.waitpid(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    wall = time.perf_counter() - t0
    if expired:
        raise CommandTimeout(f"{args[:3]} exceeded {timeout:.0f} s")
    return os.waitstatus_to_exitcode(status), wall


def machine_record():
    rec = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "platform": platform.platform()}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for index in sorted(os.listdir(cache_dir)):
            if not index.startswith("index"):
                continue
            path = os.path.join(cache_dir, index)
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                rec[f"L{level}_{kind.lower()}"] = size
    import numpy
    import scipy
    rec["numpy"], rec["scipy"] = numpy.__version__, scipy.__version__
    rec["git_commit"] = git_commit()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "psforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rec["source_sha256"] = digest.hexdigest()
    return rec


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class SetupSampler:
    """Wall times of fresh interpreters running `import psforge`, taken at
    evenly spaced moments of the run (between iterations), each with
    samples of the host's speed just before and after it."""

    def __init__(self, work, started, seconds, host):
        self.log = os.path.join(work, "setup.log")
        self.due = [started + seconds * k / SETUP_SAMPLES
                    for k in range(SETUP_SAMPLES)]
        self.host = host
        self.times, self.around = [], []

    def poll(self, deadline):
        """Takes every sample whose moment has come."""
        while (len(self.times) < SETUP_SAMPLES
               and time.perf_counter() >= self.due[len(self.times)]):
            self.sample(deadline)

    def finish(self, deadline):
        """Takes the samples still missing; returns the median set-up time
        on the quiet host."""
        while len(self.times) < SETUP_SAMPLES:
            self.sample(deadline)
        return statistics.median(t * self.host.scale(k)
                                 for t, k in zip(self.times, self.around))

    def sample(self, deadline):
        around = self.host.sample()
        rc, wall = spawn(["-c", "import psforge"], self.log,
                         deadline - time.perf_counter())
        if rc != 0:
            raise RuntimeError("import psforge failed in a fresh interpreter")
        self.times.append(wall)
        self.around.append(around + self.host.sample())


def tree_digest(path):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(path)):
        dirnames.sort()
        for name in sorted(filenames):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(dirpath, name), "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
    return digest.hexdigest()


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, name))
               for d, _, names in os.walk(path) for name in names)


def keep_going(started, seconds, durations):
    """Closed loop: start another iteration while its expected end (the
    median iteration so far) lies within half an iteration of the budget."""
    if not durations:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * statistics.median(durations) <= seconds


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, ops, outcome):
        self.attempted += ops
        self.failed += outcome.failed_ops
        self.failures.extend(f"{op}: {why}" for op, why in outcome.failures)


class HostSpeed:
    """How fast the host runs, measured next to the workload.

    On a shared host other tenants slow identical single-threaded work
    down by 1.5x to 2x, CPU time included, for seconds to minutes at a
    time, with quiet moments of tens of milliseconds in between. No
    statistic of psforge's own timings (operations of up to a second)
    removes that. A fixed reference kernel of about 2 ms (small stacked
    3x3 products and an interpreted loop, the kind of work psforge does)
    runs a few times before every operation and sees much the same
    slowdown. Being short, its fastest run over the whole run catches a
    quiet moment, so `scale(samples)` = fastest / median of the samples
    taken during some stretch of the run takes a time measured in that
    stretch to the quiet host. The kernel does not call psforge, so a
    change in psforge's cost is not cancelled; on a busy host it is
    credited at the ratio of the kernel's slowdown to that of the changed
    code (README.md, "Times on the quiet host").
    """

    REPEATS = 4

    def __init__(self):
        import numpy as np
        self._a = np.random.default_rng(0).standard_normal((40, 40, 3, 3))
        self.times = []

    def _kernel(self):
        import numpy as np
        for _ in range(3):
            np.einsum("nmij,nmjk->nmik", self._a, self._a)
        x = 0
        for i in range(15000):
            x += i * i
        return x

    def sample(self):
        """Times REPEATS runs of the kernel; returns their times."""
        local = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            local.append(time.perf_counter() - t0)
        self.times.extend(local)
        return local

    def scale(self, samples):
        return min(self.times) / statistics.median(samples)

    def record(self):
        return {"kernel_min_s": min(self.times), "count": len(self.times),
                "kernel_median_s": statistics.median(self.times)}


class OpTimes:
    """Wall and CPU seconds of every operation (a CLI command or a library
    call) over the iterations of a run, by operation and summed by
    iteration. With `host`, the host's speed is sampled before every
    operation and kept with its iteration."""

    def __init__(self, host=None):
        self.wall, self.cpu = {}, {}
        self.host = host
        self.iterations = []  # [wall, cpu, kernel samples] of each

    def begin(self):
        self.iterations.append([0.0, 0.0, []])

    def __call__(self, op, fn, *args):
        """Runs and times one operation; returns its result."""
        it = self.iterations[-1]
        if self.host is not None:
            it[2].extend(self.host.sample())
        c0, t0 = cpu_self(), time.perf_counter()
        result = fn(*args)
        wall, cpu = time.perf_counter() - t0, cpu_self() - c0
        self.wall.setdefault(op, []).append(wall)
        self.cpu.setdefault(op, []).append(cpu)
        it[0] += wall
        it[1] += cpu
        return result

    def scales(self):
        return [self.host.scale(k) for _, _, k in self.iterations]

    def quiet(self):
        """(wall, CPU) of the median iteration on the quiet host: every
        iteration's times scaled by the host's speed during it."""
        scaled = [(w * g, c * g)
                  for (w, c, _), g in zip(self.iterations, self.scales())]
        return (statistics.median(w for w, _ in scaled),
                statistics.median(c for _, c in scaled))


def cpu_self():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def validated(workload, outcome_fn):
    """Run a validator; an exception while reading outputs is a failure."""
    from workloads import Outcome
    try:
        return outcome_fn()
    except Exception as exc:  # noqa: BLE001 - any unreadable output fails
        outcome = Outcome()
        outcome.fail(workload, f"validation: {type(exc).__name__}: {exc}")
        return outcome


# -- CLI workloads ----------------------------------------------------------

def cli_command(argv):
    """psforge.cli.main on one command line in this process (looked up at
    call time, so traced bindings apply), output discarded. Returns the
    exit code, -1 for a crash."""
    import psforge
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return psforge.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed command
            return -1


def cli_iteration_inprocess(wl, times):
    """One iteration in this process, each command timed into `times`.
    Returns (exit codes, wall)."""
    from workloads import fresh_dir
    fresh_dir(wl.out)
    times.begin()
    rcs = []
    t0 = time.perf_counter()
    for argv in wl.commands:
        rcs.append(times(argv[0], cli_command, argv))
        if rcs[-1] != 0:
            break
    return rcs, time.perf_counter() - t0


def run_cli_untraced(wl, seconds, started, deadline, setup, host):
    """CLI commands in this process: each costs what it costs a user minus
    the interpreter start-up, which setup_s measures."""
    ledger = Ledger()
    times = OpTimes(host)
    walls, rsss = [], []
    checked = {}
    accuracy = {}
    while keep_going(started, seconds, walls) and time.perf_counter() < deadline:
        setup.poll(deadline)
        rcs, wall = cli_iteration_inprocess(wl, times)
        walls.append(wall)
        rsss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        # byte-identical outputs (psforge's documented determinism) carry
        # the validation of the first iteration that produced them
        key = (tuple(rcs), tree_digest(wl.out))
        if key not in checked:
            checked[key] = validated(wl.name, lambda: wl.validate(rcs))
        outcome = checked[key]
        accuracy = accuracy or outcome.accuracy
        ledger.add(len(wl.commands), outcome)
    return ledger, times, walls, rsss, accuracy


# -- library workload --------------------------------------------------------

def is_library(wl):
    return hasattr(wl, "iterate")


def library_iteration(wl, times):
    """One iteration of library calls, each timed into `times`. Returns
    (results, exception or None, wall)."""
    from workloads import fresh_dir
    fresh_dir(wl.out)
    times.begin()
    t0 = time.perf_counter()
    try:
        results = wl.iterate(times)
    except Exception as exc:  # noqa: BLE001 - a crash fails the iteration
        return None, exc, time.perf_counter() - t0
    return results, None, time.perf_counter() - t0


def library_outcome(wl, results, exc):
    from workloads import Outcome
    if exc is not None:
        outcome = Outcome()
        outcome.fail(wl.name, f"{type(exc).__name__}: {exc}")
        return outcome
    return validated(wl.name, lambda: wl.validate(results))


def library_ops(wl):
    return 5 + len(wl.probes)


def library_check(wl, ledger):
    """The split cross-check at every check node, untimed: it gives the
    accuracy figures, and warms up the timed iterations (first-call costs
    such as lazy imports are not paid per call by a user of the library).
    Returns its accuracy figures."""
    try:
        results, exc = wl.check(lambda op, fn, *args: fn(*args)), None
    except Exception as err:  # noqa: BLE001 - a crash fails the check
        results, exc = None, err
    outcome = library_outcome(wl, results, exc)
    ledger.add(len(wl.checks), outcome)
    return outcome.accuracy


def run_library_untraced(wl, seconds, started, deadline, setup, host):
    ledger = Ledger()
    times = OpTimes(host)
    walls, rsss = [], []
    accuracy = library_check(wl, ledger)
    while keep_going(started, seconds, walls) and time.perf_counter() < deadline:
        setup.poll(deadline)
        results, exc, wall = library_iteration(wl, times)
        outcome = library_outcome(wl, results, exc)
        ledger.add(library_ops(wl), outcome)
        walls.append(wall)
        rsss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        accuracy = accuracy or outcome.accuracy
        if exc is not None:
            break
    return ledger, times, walls, rsss, accuracy


# -- traced runs ---------------------------------------------------------------

def path_dev(field):
    """max |U_xy - U_yx| at lambda = 1, untraced (outside command spans)."""
    import numpy as np
    from psforge import frames
    u_xy = frames.integrate_frame(field, 1.0, order="xy", substeps=2).U
    u_yx = frames.integrate_frame(field, 1.0, order="yx", substeps=2).U
    return float(np.abs(u_xy - u_yx).max())


def traced_iteration(wl):
    """One in-process iteration under the tracer, inside a root span.
    Returns (spans, root span, result probe, outcome, operations, bytes
    the CLI wrote)."""
    import layers
    from tracing import Tracer
    probe = layers.Probe()
    tracer = Tracer(hooks=probe.hooks())
    with tracer:
        with tracer.span("bench.iteration") as root:
            if is_library(wl):
                results, exc, _ = library_iteration(wl, OpTimes())
            else:
                rcs, _ = cli_iteration_inprocess(wl, OpTimes())
    if is_library(wl):
        outcome = library_outcome(wl, results, exc)
        return tracer.spans, root, probe, outcome, library_ops(wl), 0
    outcome = validated(wl.name, lambda: wl.validate(rcs))
    return tracer.spans, root, probe, outcome, len(wl.commands), tree_bytes(wl.out)


def run_traced(wl, seconds, started, deadline):
    """Alternate untraced and traced in-process iterations; per-layer
    metrics come from the traced ones, trace_overhead from each pair."""
    import layers
    from psforge import sinegordon
    from tracing import to_json
    ledger = Ledger()
    plain, traced, per_layer, spans_out = [], [], [], []
    accuracy = library_check(wl, ledger) if is_library(wl) else {}
    while keep_going(started, seconds, [a + b for a, b in zip(plain, traced)]) \
            and time.perf_counter() < deadline:
        if is_library(wl):
            _, _, wall = library_iteration(wl, OpTimes())
        else:
            _, wall = cli_iteration_inprocess(wl, OpTimes())
        plain.append(wall)
        spans, root, probe, outcome, ops, out_bytes = traced_iteration(wl)
        traced.append(root.duration)
        ledger.add(ops, outcome)
        accuracy = accuracy or outcome.accuracy
        per_layer.append(layers.metrics(spans, probe, out_bytes))
        spans_out.append(to_json(spans))
    if is_library(wl):
        field = wl.field
    else:
        field = sinegordon.load_angle_csv(os.path.join(wl.out, "phi.csv"),
                                          os.path.join(wl.out, "phi_x.csv"))
    metrics = {k: statistics.median(m[k] for m in per_layer) for k in per_layer[0]}
    metrics["frames.path_dev"] = path_dev(field)
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    for name in layers.ACCURACY:
        metrics[name] = accuracy.get(name, 0.0)
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced}
    return ledger, metrics, samples, spans_out


# -- main --------------------------------------------------------------------

def parse_args(argv):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_checkout():
    """psforge must come from this checkout's src/, not from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "psforge", "__init__.py")):
        sys.exit(f"bench: no psforge source under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import psforge
    if not os.path.abspath(psforge.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported psforge from {psforge.__file__}, not {SRC}")


def main(argv=None):
    # one worker: on a shared 2-vCPU host psforge's per-lambda pool of two
    # threads is slower than one thread (they contend for the GIL) and
    # needs both vCPUs quiet at once, which made the timings unsteady
    os.environ["PSFORGE_THREADS"] = "1"
    sys.path.insert(0, HERE)
    check_checkout()
    args = parse_args(argv)
    import workloads
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    workloads.fresh_dir(work)
    try:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine_record()}
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        record["inputs"] = describe(wl)
        if args.trace:
            ledger, metrics, samples, spans = run_traced(
                wl, args.seconds, time.perf_counter(), deadline)
            import layers
            units = layers.UNITS
            trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w") as fh:
                json.dump({"record": record, "iterations": spans}, fh)
            record["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            t0 = time.perf_counter()
            host = HostSpeed()
            setup = SetupSampler(work, t0, args.seconds, host)
            run_untraced = run_library_untraced if is_library(wl) else run_cli_untraced
            ledger, times, walls, rsss, accuracy = run_untraced(
                wl, args.seconds, t0, deadline, setup, host)
            # every time is taken to the quiet host (see HostSpeed)
            setup_s = setup.finish(deadline)
            wall_s, cpu_s = times.quiet()
            metrics = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
                       "peak_rss_mb": statistics.median(rsss),
                       "oracle_err": accuracy.get("oracle_err", float("inf"))}
            units = END_TO_END_UNITS
            samples = {"setup_s": setup.times, "iteration_wall_s": walls,
                       "op_wall_s": times.wall, "op_cpu_s": times.cpu,
                       "host_speed": {**host.record(),
                                      "iteration_scale": times.scales()},
                       "peak_rss_mb": rsss, "accuracy": accuracy}
    finally:
        import shutil
        shutil.rmtree(work, ignore_errors=True)
    record.update(samples=samples, failures=ledger.failures[:20])
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def describe(wl):
    if is_library(wl):
        return {"grid": wl.field.grid.nx, **wl.params}
    return {"grid": wl.n, **wl.params, "commands": wl.commands}


if __name__ == "__main__":
    sys.exit(main())
