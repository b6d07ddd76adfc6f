"""Independent tasks in forked worker processes: the one fork, pipe and
reap pattern of ``wtal plot`` and ``wtal train``."""

import os
import pickle
import sys

from .formats import DataError


def cpus():
    """The number of CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0))


def fork_map(function, items, processes, describe):
    """``[function(item) for item in items]`` over up to ``processes``
    processes.

    With n = min(processes, len(items)), this process computes items 0,
    n, 2n, ... and forked child w computes items w, w + n, ...; each
    process stops at its first failing item and a child sends its
    results, or that failure, over a pipe. Every child is reaped before
    this returns or raises. When items fail, the exception of the
    lowest-indexed one is raised, the one a serial loop would meet. A
    child that ends without a report is a one-line DataError that names
    it as ``describe(w)``.
    """
    n = max(1, min(processes, len(items)))

    def share(first):
        """(results, failure) of the share that starts at ``first``;
        failure is its first (index, exception), or None."""
        results = []
        for i in range(first, len(items), n):
            try:
                results.append(function(items[i]))
            except Exception as exc:
                return results, (i, exc)
        return results, None

    # a child must not write out what the parent had buffered
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    reports = [None] * n
    try:
        for first in range(1, n):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(share, first, read_fd, write_fd)
            os.close(write_fd)
            children.append((first, pid, read_fd))
        reports[0] = share(0)
    finally:
        for first, pid, read_fd in children:
            reports[first] = _reap(pid, read_fd, first, describe)
    failures = [failure for _, failure in reports if failure is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    results = [None] * len(items)
    for first, (share_results, _) in enumerate(reports):
        results[first::n] = share_results
    return results


def _run_child(share, first, read_fd, write_fd):
    """Body of a forked worker: compute the share that starts at
    ``first``, send its report to the parent, and end the process without
    returning to the caller or running exit handlers."""
    status = 1
    try:
        os.close(read_fd)
        report = pickle.dumps(share(first))
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(report)
        status = 0
    finally:
        os._exit(status)


def _reap(pid, read_fd, first, describe):
    """Wait for the worker ``pid``: its report, or a failure of its first
    item for a worker that ended without one."""
    with os.fdopen(read_fd, "rb") as fh:
        report = fh.read()
    _, status = os.waitpid(pid, 0)
    if report:
        return pickle.loads(report)
    code = os.waitstatus_to_exitcode(status)
    how = f"signal {-code}" if code < 0 else f"exit status {code}"
    return [], (first, DataError(f"{describe(first)} ended with {how} "
                                 "before reporting"))
