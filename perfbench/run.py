"""Benchmark of roadcast, end to end and per layer.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 30 --trace 0

Makes the workload's inputs from ``--seed``, then runs its roadcast command
again and again until ``--seconds`` have passed, and checks the output. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs every roadcast command as its own process
(``python3 -m roadcast.cli``, one at a time) and reports the end-to-end
metrics. ``--trace 1`` runs the same commands inside this process through
``roadcast.cli.main``, with timing wrappers around every layer, reports the
per-layer metrics and writes the spans to ``perfbench/runs/``.

The machine's speed is measured alongside: a fixed reference loop
(`reference_loop_s`) is timed before the set-up, before every command and
after the last one. The set-up time and each command's wall time are scaled
by the mean of the two loop times around them, from the machine's speed at
that moment to the speed at which the loop takes ``REF_NOMINAL_S``. On a
shared machine, periods in which everything runs up to 1.8 times slower last
from seconds to minutes.

The set-up clock starts when ``gen-data`` is started. Up to then this process
has imported neither roadcast nor the output checks, so the set-up is a cold
one: a fresh ``gen-data`` process, then, for the inference workloads, the
first import of roadcast here and the untrained checkpoint.

BLAS is pinned to one thread, in this process and in every command it
starts: OpenBLAS spreads roadcast's small matrix products over all cores,
which on a two-core machine is slower and much less steady than one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

sys.dont_write_bytecode = True

REF_ITERATIONS = 12000
REF_NOMINAL_S = 0.25  # reference_loop_s on the development machine when it is quiet
TRACE_TOP = 25        # spans in the traced run's summary on standard error


@dataclass
class Command:
    """One finished roadcast command."""

    out: Path
    code: int
    wall_s: float
    peak_rss_mb: float


def run_process(argv, log: Path) -> Command:
    """Runs ``roadcast <argv>`` as a child process and waits for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "roadcast.cli", *argv],
                                stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(log.parent, proc.returncode, wall, usage.ru_maxrss / 1024.0)


def run_in_process(argv, log: Path) -> Command:
    """Runs ``roadcast <argv>`` through ``roadcast.cli.main`` in this process."""
    from roadcast.cli import main

    with open(log, "w") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    return Command(log.parent, code, wall, 0.0)


def reference_loop_s() -> float:
    """Seconds taken by a fixed loop of small NumPy operations, the kind that
    dominate roadcast: a 64x32 by 32x32 product and a row softmax."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((64, 32)), rng.random((32, 32))
    start = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        x = a @ b
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        e / e.sum(axis=-1, keepdims=True)
    return time.perf_counter() - start


def run_workload(wl, seed: int, seconds: float, tracer, work: Path) -> dict:
    from workloads import build_untrained_checkpoint, gen_data_argv

    run = run_in_process if tracer else run_process
    refs = []
    if tracer:
        tracer.install()
    else:
        refs.append(reference_loop_s())
    data, ckpt = work / "data", work / "ckpt"
    setup_start = time.perf_counter()
    made = run(gen_data_argv(wl, seed, data), work / "gen-data.log")
    if made.code != 0:
        sys.exit(f"gen-data exited {made.code}; see {work / 'gen-data.log'}")
    if wl.untrained_checkpoint:
        build_untrained_checkpoint(data, ckpt)
    setup_s = time.perf_counter() - setup_start

    if tracer:
        tracer.current_phase = 1
    commands = []
    start = time.perf_counter()
    while not commands or time.perf_counter() - start < seconds:
        if not tracer:
            refs.append(reference_loop_s())
        out = work / f"out{len(commands)}"
        out.mkdir()
        commands.append(run(wl.command(data, ckpt, out, seed), out / "command.log"))
    if tracer:
        tracer.uninstall()
    else:
        refs.append(reference_loop_s())

    from checks import CheckError

    done = [c for c in commands if c.code == 0]
    for c in commands:
        if c.code != 0:
            print(f"{wl.name}: command exited {c.code}:\n"
                  f"{(c.out / 'command.log').read_text()[-2000:]}", file=sys.stderr)
    correct, units = bool(done), 0
    try:
        if done:
            units = wl.check(data, ckpt, done[0].out, seed)
            for c in done[1:]:
                for name in wl.outputs:
                    if (c.out / name).read_bytes() != (done[0].out / name).read_bytes():
                        raise CheckError(f"{name} differs between runs of the same inputs")
    except CheckError as err:
        print(f"{wl.name}: output check failed: {err}", file=sys.stderr)
        correct = False

    walls = [c.wall_s for c in done]
    print(f"{wl.name} seed {seed}: set-up {setup_s:.3f} s; {len(done)} runs of "
          f"{units} {wl.unit}, wall s {[round(w, 3) for w in walls]}; "
          f"reference loop s {[round(r, 3) for r in refs]}", file=sys.stderr)
    result = {"correct": correct, "attempted": len(commands),
              "failed": len(commands) - len(done)}
    if tracer:
        from layers import PER_LAYER, per_layer_metrics

        values = per_layer_metrics(tracer, len(done))
        result["metrics"] = {name: {"value": values[name], "unit": spec[0]}
                             for name, spec in PER_LAYER.items()}
        _print_trace_summary(tracer)
        tracer.save(RUNS / f"trace-{wl.name}-s{seed}.npz")
    elif done:
        # the set-up and each command at nominal speed, by the mean of the
        # loops timed around it: refs[0] before the set-up, refs[i + 1]
        # between the set-up or command i and the next
        def nominal(wall_s: float, i: int) -> float:
            return wall_s * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1])

        nominal_walls = [nominal(c.wall_s, i + 1)
                         for i, c in enumerate(commands) if c.code == 0]
        result["metrics"] = {
            "setup_s": {"value": nominal(setup_s, 0), "unit": "s"},
            "work_per_s": {"value": units / statistics.median(nominal_walls), "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(c.peak_rss_mb for c in done),
                            "unit": "MB"},
        }
    else:
        result["metrics"] = {}
    return result


def _print_trace_summary(tracer) -> None:
    rows = tracer.totals().get(1, {})
    ranked = sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])[:TRACE_TOP]
    print(f"{'span':<36}{'calls':>9}{'total s':>10}{'self s':>10}", file=sys.stderr)
    for name, row in ranked:
        print(f"{name:<36}{row['calls']:>9}{row['total_s']:>10.3f}{row['self_s']:>10.3f}",
              file=sys.stderr)


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    work = RUNS / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the running command is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "roadcast" / "cli.py").is_file():
        sys.exit(f"error: no roadcast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.exit(main())
