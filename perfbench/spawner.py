"""Start one child at a time on request and report its exit code, wall time and peak RSS.

Run as ``python3 -S perfbench/spawner.py``. Each stdin line is NUL-separated
fields: timeout in seconds, stdout path, stderr path, then the argv to run.
Each reply line on stdout is ``exit_code wall_seconds max_rss_kib``. A child
that outlives its timeout is killed. SIGTERM kills the running child, then the
spawner. End of input ends the spawner.

Peak RSS comes from os.wait4 for that child alone. It is read here, in a
process that stays small, because Linux carries the parent's own high-water
RSS into a child started by vfork or posix_spawn: a child of the benchmark
process, which holds the generated inputs, would report at least that size.
"""

import os
import signal
import sys
import time


def expire(signum, frame):
    raise TimeoutError


def stop(signum, frame):
    raise SystemExit(1)


def run(timeout: float, out: bytes, err: bytes, argv: list[bytes]) -> str:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd, err_fd = os.open(out, flags, 0o644), os.open(err, flags, 0o644)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_fd, 1),
        (os.POSIX_SPAWN_DUP2, err_fd, 2),
    ]
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException as exc:  # the timeout, or SIGTERM from the benchmark
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            if not isinstance(exc, TimeoutError):
                raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(out_fd)
        os.close(err_fd)
    return f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}\n"


def main() -> None:
    signal.signal(signal.SIGALRM, expire)
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin.buffer:
        timeout, out, err, *argv = line.rstrip(b"\n").split(b"\0")
        sys.stdout.write(run(float(timeout), out, err, argv))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
