"""One benchmark run of one workload: set-up, the timed loop, the checks,
and the metrics of either the untraced or the traced mode."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import shutil
import statistics
from time import perf_counter

import numpy as np

import tracer
import workloads
from workloads import ALGORITHMS, EVAL_ATTACKS, WORKLOADS


def run(ml, name: str, seed: int, seconds: int, trace: int, root) -> tuple:
    """(result, metadata) for one workload; result carries the metric values,
    ``attempted``/``failed`` operation counts and the failure labels."""
    wl = WORKLOADS[name]
    workdir = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if trace:
            metrics, attempted, failures = _traced(ml, wl, seed, seconds, workdir)
        else:
            metrics, attempted, failures = _untraced(ml, wl, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics, "failures": failures}
    return result, metadata(root, wl, seed, seconds, trace)


# -- untraced: the end-to-end metrics -------------------------------------------


def _untraced(ml, wl, seed, seconds, workdir):
    failures, attempted = [], 0
    setup_s, first = [], None
    for i in range(wl.setup_repeats):
        attempted += 1
        t0 = perf_counter()
        st = workloads.setup(ml, wl, seed, _fresh(workdir, f"setup-{i}"))
        setup_s.append(perf_counter() - t0)
        first = first or st.ckpt_bytes
        if st.ckpt_bytes != first:
            failures.append("set-up: pretrained checkpoint differs between repeats")

    cycles = _timed_cycles(ml, wl, st, seed, seconds, workdir)
    ref = cycles[0].outputs
    for c in cycles:
        attempted += c.attempted
        failures += c.failures + _diff(ref, c.outputs, "cycle")

    bad = workloads.verify_perturbations(ml, wl, st, seed)
    attempted += len(EVAL_ATTACKS)
    failures += bad

    samples = {}
    for c in cycles:
        for metric, values in c.seconds.items():
            samples.setdefault(metric, []).extend(values)
    metrics = {"setup_s": statistics.median(setup_s)}
    metrics.update({m: statistics.median(v) for m, v in samples.items() if v})
    for algorithm in ALGORITHMS:
        metrics[f"val_robust.{algorithm}"] = ref.get(f"val_robust.{algorithm}")
    for kind in EVAL_ATTACKS:
        metrics[f"attack_success.{kind}"] = ref.get(f"attack_success.{kind}")
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, attempted, failures


def _timed_cycles(ml, wl, st, seed, seconds, workdir):
    """Whole cycles until ``seconds`` have passed (at least one)."""
    cycles, t_end = [], perf_counter() + seconds
    while not cycles or perf_counter() < t_end:
        cycles.append(_cycle(ml, wl, st, seed, workdir, len(cycles)))
    return cycles


def _cycle(ml, wl, st, seed, workdir, index):
    return workloads.run_cycle(ml, wl, st, seed,
                               _fresh(workdir, f"cycle-{index}"))


def _fresh(workdir, label) -> str:
    """A new, empty output directory.  Outputs never overwrite or delete an
    older file while the run lasts: on ext4, renaming over an existing file
    forces the new file's blocks to disk first, which adds tens of
    milliseconds of disk latency to the timed call."""
    path = os.path.join(workdir, label)
    os.makedirs(path)
    return path


def _diff(ref: dict, outputs: dict, label: str) -> list:
    return [f"{label}: {key} differs from the first cycle"
            for key in sorted(set(ref) | set(outputs))
            if ref.get(key) != outputs.get(key)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- traced: the per-layer metrics --------------------------------------------


def _traced(ml, wl, seed, seconds, workdir):
    """Alternate untraced and traced cycles.  The traced outputs must equal
    the untraced ones, the patched bindings must all be restored, and the
    per-layer counts must repeat exactly from one traced cycle to the next."""
    failures, attempted = [], 2  # the untraced and the traced set-up
    n_tensors = wl.param_tensors
    ref = workloads.setup(ml, wl, seed, _fresh(workdir, "setup-plain"))
    with tracer.Tracer(ml, n_tensors) as tr_setup:
        st = workloads.setup(ml, wl, seed, _fresh(workdir, "setup-traced"))
    failures += _trace_hygiene(tr_setup, "set-up")
    if st.ckpt_bytes != ref.ckpt_bytes:
        failures.append("traced set-up: checkpoint differs from the untraced one")

    plain_s, traced_s, snapshots = [], [], []
    t_end = perf_counter() + seconds
    reference = None
    while len(snapshots) < 2 or perf_counter() < t_end:
        t0 = perf_counter()
        plain = _cycle(ml, wl, st, seed, workdir, 2 * len(snapshots))
        plain_s.append(perf_counter() - t0)
        with tracer.Tracer(ml, n_tensors) as tr:
            t0 = perf_counter()
            traced = _cycle(ml, wl, st, seed, workdir, 2 * len(snapshots) + 1)
            traced_s.append(perf_counter() - t0)
        reference = reference or plain.outputs
        attempted += plain.attempted + traced.attempted + 1
        failures += plain.failures + traced.failures + _trace_hygiene(tr, "cycle")
        failures += _diff(reference, plain.outputs, "untraced cycle")
        failures += _diff(reference, traced.outputs, "traced cycle")
        attempted += tr.eta_checks
        failures += [f"traced {span}: eta outside the ball or the box"
                     for span in tr.eta_failures]
        snapshots.append(tr.metrics())

    counts = tracer.counts_of(snapshots[0])
    for snap in snapshots[1:]:
        attempted += 1
        if tracer.counts_of(snap) != counts:
            failures.append("traced cycle: per-layer counts differ between cycles")
    attempted += tr_setup.eta_checks
    metrics = tracer.combine(tr_setup.metrics(), snapshots)
    metrics["trace.overhead_s"] = (statistics.median(traced_s)
                                   - statistics.median(plain_s))
    return metrics, attempted, failures


def _trace_hygiene(tr, label) -> list:
    return [] if tr.bindings_restored() else [f"{label}: tracer left a binding patched"]


# -- metadata -----------------------------------------------------------------


def metadata(root, wl, seed, seconds, trace) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass  # numpy too old to report its build as a dict
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "shape": wl.shape(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(root),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit(root) -> str:
    """HEAD of the checkout's git metadata, read as files; a checkout
    exported without .git reports 'unknown'."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"
