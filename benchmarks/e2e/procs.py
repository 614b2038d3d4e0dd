"""Process and file hygiene: scratch directory, watchdog, worker host.

Every workload runs inside one :class:`Sandbox`.  Whatever happens in
the body — a clean finish, an oracle failure, an exception, the
watchdog firing — leaving the ``with`` block stops the ``serve
--worker`` host and any pipe workers, waits for them, and removes the
temporary journals.  All files stay inside the checkout
(``benchmarks/e2e/out/``).
"""

from __future__ import annotations

import multiprocessing
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

__all__ = ["Sandbox", "WatchdogTimeout", "REPO_ROOT", "OUT_DIR"]

REPO_ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

_WORKER_MAIN = (
    "import sys; from repro.cli import xcql_main; sys.exit(xcql_main(sys.argv[1:]))"
)


class WatchdogTimeout(RuntimeError):
    """A workload ran past its watchdog and was torn down."""


class Sandbox:
    """Scratch directory + child processes + watchdog for one workload."""

    def __init__(self, name: str, watchdog_s: float):
        self.name = name
        self.watchdog_s = watchdog_s
        self.tmp: Optional[str] = None
        self._children: list[subprocess.Popen] = []
        self._previous_handler = None
        self._previous_term = None

    def __enter__(self) -> "Sandbox":
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"tmp-{self.name}-", dir=OUT_DIR)
        # SIGALRM interrupts blocking socket/pipe reads in the main
        # thread, so a wedged link cannot outlive the watchdog.
        self._previous_handler = signal.signal(signal.SIGALRM, self._expired)
        signal.setitimer(signal.ITIMER_REAL, self.watchdog_s)
        # A polite kill (a driver's timeout) still unwinds through __exit__.
        self._previous_term = signal.signal(signal.SIGTERM, self._terminated)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        signal.signal(signal.SIGTERM, self._previous_term)
        self.reap()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def _expired(self, signum, frame) -> None:
        raise WatchdogTimeout(
            f"workload {self.name} exceeded its {self.watchdog_s:.0f}s watchdog"
        )

    def _terminated(self, signum, frame) -> None:
        raise SystemExit(128 + signum)

    def path(self, filename: str) -> str:
        assert self.tmp is not None
        return os.path.join(self.tmp, filename)

    # -- children -----------------------------------------------------------------

    def spawn_worker_host(self) -> tuple[str, int]:
        """Start ``repro-xcql serve --worker`` on an ephemeral loopback port.

        Returns ``("127.0.0.1:port", pid)``.  ``--linger`` bounds the
        host's life even if this process is killed outright.
        """
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        child = subprocess.Popen(
            [
                sys.executable, "-c", _WORKER_MAIN,
                "serve", "--worker", "--port", "0",
                "--linger", str(int(self.watchdog_s) + 30),
            ],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            cwd=self.tmp,
        )
        self._children.append(child)
        banner = self._read_banner(child, timeout=30.0)
        # "serving on 127.0.0.1:PORT (journal seq 0, role worker)"
        try:
            address = banner.split("serving on ", 1)[1].split(" ", 1)[0]
            int(address.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            raise RuntimeError(f"worker host did not announce a port: {banner!r}")
        return address, child.pid

    @staticmethod
    def _read_banner(child: subprocess.Popen, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        data = b""
        fd = child.stderr.fileno()
        while b"\n" not in data:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or child.poll() is not None:
                break
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                data += chunk
        return data.decode("utf-8", "replace").strip()

    def reap(self) -> None:
        """Stop and wait for every child this sandbox (or the SUT) started."""
        for child in self._children:
            if child.poll() is None:
                child.terminate()
        for child in self._children:
            try:
                child.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            if child.stderr is not None:
                child.stderr.close()
        self._children.clear()
        # Pipe workers the sharded engine forked: close() stops them on
        # the happy path; this catches the error paths.
        for worker in multiprocessing.active_children():
            worker.kill()
            worker.join(timeout=5.0)
