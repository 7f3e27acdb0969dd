"""Program processes, timed and reaped from outside.

Every process the benchmark starts goes through :class:`Proc`: it runs in
its own session (so a kill reaches the pool workers it forked), its exit
is collected with ``os.wait4`` (so the benchmark gets the wall time at
the instant of exit and the peak resident set of the process *and* the
children it reaped), and it never outlives the deadline it was given.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional


class Deadline:
    """The run's hard time budget; every wait is clipped to it."""

    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(0.0, self.end - time.monotonic())


def program_env(checkout: Path, tmp: Path) -> Dict[str, str]:
    """Environment for program processes: the checkout's own sources,
    and temporary files (spill runs) kept inside the checkout."""
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(tmp)
    return env


def python_cmd(*args: str) -> List[str]:
    return [sys.executable, *args]


class Proc:
    """One program process: started now, reaped by :meth:`wait`.

    ``stdout`` goes to a file unless ``pipe_stdout`` (the daemon, whose
    ``listening on`` line the benchmark reads); ``stderr`` always goes to
    a file so a chatty process can never block on a full pipe.
    """

    def __init__(self, cmd: List[str], env: Dict[str, str], workdir: Path,
                 tag: str, pipe_stdout: bool = False) -> None:
        self.cmd = cmd
        self.stdout_path = workdir / f"{tag}.out"
        self.stderr_path = workdir / f"{tag}.err"
        self.returncode: Optional[int] = None
        self.maxrss_kb = 0
        self.timed_out = False
        self.ok = False
        self._end: Optional[float] = None
        out = None if pipe_stdout else self.stdout_path.open("wb")
        with self.stderr_path.open("wb") as err:
            try:
                self.start = time.perf_counter()
                self.popen = subprocess.Popen(
                    cmd, env=env, cwd=str(workdir), start_new_session=True,
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE if pipe_stdout else out,
                    stderr=err)
            finally:
                if out is not None:
                    out.close()
        self._reaper = threading.Thread(target=self._reap, daemon=True)
        self._reaper.start()

    def _reap(self) -> None:
        _, status, usage = os.wait4(self.popen.pid, 0)
        self._end = time.perf_counter()
        self.maxrss_kb = usage.ru_maxrss
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.returncode = os.waitstatus_to_exitcode(status)
        # Popen must not try to reap the pid again (it may be reused).
        self.popen.returncode = self.returncode

    def readline(self, deadline: Deadline) -> str:
        """One line of piped stdout, or "" at EOF or the deadline."""
        fd = self.popen.stdout.fileno()
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([fd], [], [], deadline.left())
            if not ready:
                return ""
            chunk = os.read(fd, 1)
            if not chunk:
                break
            line += chunk
        return line.decode(errors="replace")

    def kill(self) -> None:
        if self.returncode is None:
            try:
                os.killpg(self.popen.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def wait(self, deadline: Deadline) -> bool:
        """Reap the process; kill its session if the deadline passes.

        Returns (and stores as ``ok``) whether it exited by itself with
        code 0.
        """
        self._reaper.join(deadline.left())
        if self._reaper.is_alive():
            self.timed_out = True
            self.kill()
            self._reaper.join()
        self.ok = self.returncode == 0 and not self.timed_out
        if not self.ok:
            # Pool workers orphaned by a failed parent share its session.
            try:
                os.killpg(self.popen.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        return self.ok

    @property
    def wall(self) -> float:
        return self._end - self.start

    @property
    def maxrss_mb(self) -> float:
        return self.maxrss_kb / 1024.0

    def stdout(self) -> str:
        return self.stdout_path.read_text(errors="replace")

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace")


def run(cmd: List[str], env: Dict[str, str], workdir: Path, tag: str,
        deadline: Deadline) -> Proc:
    """Start *cmd* and wait for it to exit (or the deadline)."""
    proc = Proc(cmd, env, workdir, tag)
    try:
        proc.wait(deadline)
    except BaseException:
        proc.kill()
        raise
    return proc
