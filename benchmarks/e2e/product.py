"""The product under test, started the way a user starts it.

``repro fit`` and ``repro serve`` run as subprocesses of the
benchmark with every flag left at its default; only the inputs a user
must give (dataset, task, scale, where to save) are passed.  Children
are reaped with ``os.wait4`` so each one's own peak RSS is known, and
:class:`ServeProcess` is a context manager that kills its child on any
exit path, so a failed check never leaves a server behind.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from loadgen import PipeConnection, clock

__all__ = ["DATASET", "TASK", "FitResult", "ServeProcess", "SRC_DIR", "run_fit"]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")

DATASET = "ecommerce"
TASK = "churn"
#: Seeds of the dataset generator and the model stay fixed so quality
#: numbers are comparable across runs; ``--seed`` drives traffic only.
PRODUCT_SEED = 0
#: A fit that has not exited by then is killed and the run fails.
FIT_TIMEOUT_S = 150.0


def child_env() -> Dict[str, str]:
    """The benchmark's environment plus ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + extra if extra else "")
    return env


def _repro(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


class FitResult:
    """What one ``repro fit`` subprocess printed and cost."""

    def __init__(self, wall_s: float, peak_rss_mb: float, stdout: str) -> None:
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.stdout = stdout

    def _number(self, pattern: str) -> float:
        match = re.search(pattern, self.stdout, re.MULTILINE)
        if match is None:
            raise RuntimeError(f"`repro fit` output has no {pattern!r}:\n{self.stdout}")
        return float(match.group(1))

    @property
    def test_auroc(self) -> float:
        """The test AUROC the CLI printed."""
        return self._number(r"^\s+auroc\s+([0-9.]+)")

    @property
    def tiers(self) -> List[str]:
        """Tiers a ``--route`` fit reported, cheapest first."""
        return re.findall(r"^\s+(green|yellow|red)\s+quality", self.stdout, re.MULTILINE)

    @property
    def epochs(self) -> float:
        """Epochs the trainer ran (early stopping may end it sooner)."""
        return self._number(r"^trained ([0-9]+) epochs")

    @property
    def train_seconds(self) -> float:
        """The trainer's own wall time, as the CLI prints it."""
        return self._number(r"^trained [0-9]+ epochs in ([0-9.]+)s")


def run_fit(scale: float, save_dir: str, extra: Optional[List[str]] = None) -> FitResult:
    """Run ``repro fit --dataset ecommerce --task churn`` to completion.

    Wall time is exec-to-exit; peak RSS is the child's own
    ``ru_maxrss``.  Raises when the CLI exits non-zero.
    """
    argv = _repro(
        "fit", "--dataset", DATASET, "--task", TASK, "--scale", str(scale),
        "--save", save_dir, *(extra or []),
    )
    out_path = os.path.join(save_dir + ".fit.out")
    err_path = os.path.join(save_dir + ".fit.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = clock()
        child = subprocess.Popen(
            argv, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        # wait4 gives this child's own rusage; a timer bounds the wait.
        watchdog = threading.Timer(FIT_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            watchdog.cancel()
        wall = clock() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8") as handle:
        stdout = handle.read()
    if child.returncode != 0:
        with open(err_path, "r", encoding="utf-8") as handle:
            stderr = handle.read()
        raise RuntimeError(f"`{' '.join(argv)}` exited {child.returncode}:\n{stderr[-2000:]}")
    # ru_maxrss is kilobytes on Linux.
    return FitResult(wall, usage.ru_maxrss / 1024.0, stdout)


class ServeProcess:
    """``repro serve --model DIR`` with every serve flag at its default.

    ``ready_s`` is exec to the ``ready:`` line on stderr; ``conn`` is
    the single connection (the child's stdin/stdout pipes).  Stderr
    goes to a file beside the model so a chatty server can never block
    on a full pipe; the file is polled for the ready line.
    """

    READY_TIMEOUT_S = 60.0

    def __init__(self, model_dir: str, scale: float) -> None:
        self.argv = _repro(
            "serve", "--dataset", DATASET, "--scale", str(scale), "--model", model_dir,
        )
        self.log_path = model_dir + ".serve.err"
        self.child: Optional[subprocess.Popen] = None
        self.conn: Optional[PipeConnection] = None
        self.ready_s = float("nan")

    def log_tail(self) -> str:
        """The end of the server's stderr, for error messages."""
        with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()[-2000:]

    def __enter__(self) -> "ServeProcess":
        with open(self.log_path, "wb") as log:
            start = clock()
            self.child = subprocess.Popen(
                self.argv, env=child_env(), bufsize=0,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            )
        with open(self.log_path, "rb") as log:
            seen = b""
            while b"ready:" not in seen:
                seen += log.read()
                if self.child.poll() is not None or clock() - start > self.READY_TIMEOUT_S:
                    self._kill()
                    raise RuntimeError(f"`repro serve` did not become ready:\n{self.log_tail()}")
                if b"ready:" not in seen:
                    time.sleep(0.002)
        self.ready_s = clock() - start
        self.conn = PipeConnection(self.child.stdin.fileno(), self.child.stdout.fileno())
        return self

    def _kill(self) -> None:
        if self.child.poll() is None:
            self.child.kill()
        self.child.wait()
        for pipe in (self.child.stdin, self.child.stdout):
            pipe.close()

    def close(self) -> int:
        """EOF on stdin, then wait for the exit code (0 = drained cleanly)."""
        self.child.stdin.close()
        try:
            return self.child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            raise RuntimeError("`repro serve` did not exit within 30s of EOF on stdin")

    def __exit__(self, exc_type, exc, tb) -> None:
        self._kill()
