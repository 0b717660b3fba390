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
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading
from dataclasses import dataclass
from typing import Mapping

from .space import SearchSpace
from .trainers import TrainerSpec


class TrainerProtocolError(RuntimeError):
    """Raised on handshake failure, malformed replies, timeouts, or child errors."""


@dataclass(frozen=True)
class ExternalState:
    token: str


class ExternalTrainer:
    """Runs the configured command and proxies the trainer contract over pipes."""

    def __init__(self, spec: TrainerSpec, space: SearchSpace):
        self.spec = spec
        self.space = space
        try:
            self._proc = subprocess.Popen(
                list(spec.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise TrainerProtocolError(f"could not start trainer command: {exc}") from exc
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self._closed = False

    def _pump(self):
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)  # EOF marker

    def _request(self, msg: dict) -> dict:
        if self._closed or self._proc.poll() is not None:
            raise TrainerProtocolError("trainer process is not running")
        try:
            self._proc.stdin.write(json.dumps(msg) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise TrainerProtocolError(f"trainer pipe closed: {exc}") from exc
        try:
            line = self._lines.get(timeout=self.spec.timeout)
        except queue.Empty:
            self._kill()
            raise TrainerProtocolError(
                f"trainer reply timed out after {self.spec.timeout}s"
            ) from None
        if line is None:
            code = self._proc.wait()
            raise TrainerProtocolError(f"trainer exited with code {code} mid-conversation")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError:
            raise TrainerProtocolError(f"malformed trainer reply: {line.rstrip()!r}") from None
        if not isinstance(reply, dict) or "ok" not in reply:
            raise TrainerProtocolError(f"malformed trainer reply: {line.rstrip()!r}")
        if not reply["ok"]:
            raise TrainerProtocolError(f"trainer error: {reply.get('error', 'unspecified')}")
        return reply

    # -- trainer contract ----------------------------------------------------

    def init(self, seed: int) -> ExternalState:
        reply = self._request(
            {"cmd": "init", "seed": int(seed), "space": self.space.as_config()}
        )
        return ExternalState(token=str(reply["state"]))

    def step_many(self, state: ExternalState, hp: Mapping[str, float], iters: int) -> ExternalState:
        if iters < 1:
            return state
        reply = self._request(
            {"cmd": "step", "state": state.token, "hp": dict(hp), "iters": int(iters)}
        )
        return ExternalState(token=str(reply["state"]))

    def evaluate(self, state: ExternalState) -> tuple[float, float]:
        reply = self._request({"cmd": "eval", "state": state.token})
        return float(reply["val"]), float(reply["test"])

    def fork(self, state: ExternalState) -> ExternalState:
        reply = self._request({"cmd": "fork", "state": state.token})
        return ExternalState(token=str(reply["state"]))

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        if self._closed:
            return
        self._closed = True
        try:
            if self._proc.poll() is None:
                self._proc.stdin.write(json.dumps({"cmd": "shutdown"}) + "\n")
                self._proc.stdin.flush()
                self._proc.stdin.close()
                self._proc.wait(timeout=10)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self._kill()

    def _kill(self):
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __del__(self):
        try:
            self._kill()
        except Exception:
            pass
