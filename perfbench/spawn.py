"""Start the timed processes from a small interpreter of their own.

On Linux a child's ``ru_maxrss`` includes the peak resident memory of the
process it was spawned from, because the memory it had before ``exec`` is
that process's.  The benchmark's own process holds every input's subjects
and runs the reference checks, which can outgrow the program under test, so
its children would report the benchmark's peak instead of their own.  This
launcher imports nothing but the standard library's basics and stays near a
bare interpreter's size; the measured processes are spawned from it.

Protocol: one JSON request per line on standard input, ``{"argv", "env",
"cwd", "stdout", "cpu", "timeout"}``; one JSON reply per line on standard
output, ``{"wall", "cpu_s", "maxrss_kib", "exit"}``.  A child that outlives
its ``timeout`` is killed.  On SIGTERM the current child is killed and
reaped before the launcher exits; at end of input it exits.

Usage (started by ``Launcher``): python3 spawn.py
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

_current = 0


def _kill_current(*_) -> None:
    if _current:
        try:
            os.kill(_current, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _stop(*_) -> None:
    _kill_current()
    if _current:
        try:
            os.waitpid(_current, 0)
        except ChildProcessError:
            pass
    os._exit(143)


def serve() -> None:
    global _current
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGALRM, _kill_current)
    for line in sys.stdin:
        req = json.loads(line)
        if req["cpu"] is not None:
            os.sched_setaffinity(0, {req["cpu"]})
        fd = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.chdir(req["cwd"])
        actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
        # SIGTERM waits until the child's pid is known; the child starts
        # with no signal blocked.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        start = time.perf_counter()
        _current = os.posix_spawn(
            req["argv"][0], req["argv"], req["env"], file_actions=actions, setsigmask=()
        )
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        signal.alarm(req["timeout"])
        _, status, usage = os.wait4(_current, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        _current = 0
        os.close(fd)
        reply = {
            "wall": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
            "exit": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Launcher:
    """The launcher process, seen from the benchmark's side."""

    def __init__(self) -> None:
        import subprocess

        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(
        self, argv: list[str], env: dict, cwd: os.PathLike, stdout: os.PathLike,
        cpu: int | None, timeout: int,
    ) -> dict:
        request = {
            "argv": argv, "env": env, "cwd": str(cwd), "stdout": str(stdout),
            "cpu": cpu, "timeout": timeout,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended")
        return json.loads(line)

    def close(self) -> None:
        """Stop the launcher; a child it is running is killed and reaped."""
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
