"""Bridge to an external trainer process speaking newline-delimited JSON.

One message per line, UTF-8. Requests carry a "cmd" field; every reply is a
single object with "ok": true plus the payload, or "ok": false plus "error".
Model state lives inside the child process and is addressed by opaque tokens;
copying is a "fork" message returning a fresh token.

    -> {"cmd": "init", "seed": S, "space": [{name, lower, upper, scale}, ...]}
    <- {"ok": true, "state": TOKEN}
    -> {"cmd": "step", "state": TOKEN, "hp": {...}, "iters": K}
    <- {"ok": true, "state": TOKEN'}
    -> {"cmd": "eval", "state": TOKEN}
    <- {"ok": true, "val": x, "test": y}
    -> {"cmd": "fork", "state": TOKEN}
    <- {"ok": true, "state": TOKEN''}
    -> {"cmd": "shutdown"}

The conversation runs in the caller's thread; no thread is used. Each reply
line must arrive within `spec.timeout` seconds of its request, or the child is
killed. Every bad reply, exit or timeout raises TrainerProtocolError. The wait
uses select() on the pipe, so the bridge needs POSIX pipes.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import time
from typing import Mapping

from .config import ConfigError, typed_value
from .space import SearchSpace
from .trainers import TrainerSpec

SHUTDOWN_TIMEOUT = 10.0  # seconds a child has to exit after "shutdown" before it is killed


class TrainerProtocolError(RuntimeError):
    """Raised on handshake failure, malformed replies, timeouts, or child errors."""


def _loss(value, field: str) -> float:
    """An "eval" reply's `field`, which must be a finite JSON number, by the
    rule a config's float fields follow."""
    try:
        return typed_value(float, value, field)
    except ConfigError:
        raise TrainerProtocolError(
            f"trainer reply to 'eval': {field!r} must be a finite number, got {value!r}"
        ) from None


class ExternalTrainer:
    """Runs the configured command and proxies the trainer contract over pipes."""

    def __init__(self, spec: TrainerSpec, space: SearchSpace):
        self.spec = spec
        self.space = space
        try:
            self._proc = subprocess.Popen(
                list(spec.command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as exc:
            raise TrainerProtocolError(f"could not start trainer command: {exc}") from exc
        self._buffer = bytearray()  # stdout bytes read past the last reply line

    def _request(self, msg: dict, *fields: str) -> list:
        """Send `msg` and return the reply's `fields`, each of which must be present."""
        if self._proc.poll() is not None:
            raise TrainerProtocolError("trainer process is not running")
        try:
            self._proc.stdin.write(json.dumps(msg).encode() + b"\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise TrainerProtocolError(f"trainer pipe closed: {exc}") from exc
        line = self._read_line(time.monotonic() + self.spec.timeout)
        try:
            reply = json.loads(line)
        except ValueError:  # also bytes that are not UTF-8
            reply = None
        if not isinstance(reply, dict) or "ok" not in reply:
            raise TrainerProtocolError(f"malformed trainer reply: {line.rstrip()!r}")
        if not reply["ok"]:
            raise TrainerProtocolError(f"trainer error: {reply.get('error', 'unspecified')}")
        for field in fields:
            if field not in reply:
                raise TrainerProtocolError(f"trainer reply to {msg['cmd']!r} has no {field!r}")
        return [reply[field] for field in fields]

    def _read_line(self, deadline: float) -> bytes:
        """The next newline-terminated line from the child's stdout, by `deadline`."""
        fd = self._proc.stdout.fileno()
        while (end := self._buffer.find(b"\n")) < 0:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                self._kill()
                raise TrainerProtocolError(f"trainer reply timed out after {self.spec.timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                try:
                    code = self._proc.wait(timeout=max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    self._kill()
                    raise TrainerProtocolError(
                        f"trainer closed its stdout, did not exit within {self.spec.timeout}s"
                        " and was killed"
                    ) from None
                raise TrainerProtocolError(f"trainer exited with code {code} mid-conversation")
            self._buffer += chunk
        line = bytes(self._buffer[: end + 1])
        del self._buffer[: end + 1]
        return line

    # -- trainer contract ----------------------------------------------------

    def init(self, seed: int) -> str:
        msg = {"cmd": "init", "seed": int(seed), "space": self.space.as_config()}
        (token,) = self._request(msg, "state")
        return str(token)

    def step_many(self, state: str, hp: Mapping[str, float], iters: int) -> str:
        if iters < 1:
            return state
        msg = {"cmd": "step", "state": state, "hp": dict(hp), "iters": int(iters)}
        (token,) = self._request(msg, "state")
        return str(token)

    def evaluate(self, state: str) -> tuple[float, float]:
        val, test = self._request({"cmd": "eval", "state": state}, "val", "test")
        return _loss(val, "val"), _loss(test, "test")

    def fork(self, state: str) -> str:
        (token,) = self._request({"cmd": "fork", "state": state}, "state")
        return str(token)

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        """Ask the child to shut down, wait for the end of its stdout and reap
        it; kill it when it has not exited within SHUTDOWN_TIMEOUT seconds."""
        try:
            if self._proc.poll() is None:
                self._proc.stdin.write(json.dumps({"cmd": "shutdown"}).encode() + b"\n")
                self._proc.stdin.flush()
                self._proc.stdin.close()
                deadline = time.monotonic() + SHUTDOWN_TIMEOUT
                # Wait for EOF on stdout, dropping any late output: select()
                # wakes at once, where Popen.wait(timeout) polls in sleeps.
                fd = self._proc.stdout.fileno()
                while (remaining := deadline - time.monotonic()) > 0:
                    if select.select([fd], [], [], remaining)[0] and not os.read(fd, 65536):
                        break
                self._proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self._kill()
        self._proc.stdout.close()

    def _kill(self):
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()

    def __del__(self):
        try:
            self._kill()
        except Exception:
            pass
