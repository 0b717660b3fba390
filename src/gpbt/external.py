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

The conversation runs in the caller's thread; no thread is used. No call
waits for its own reply: `init`, `fork` and `step` write their request and
return at once with a pending token, whose reply is read the first time the
token is used or when a later reply is needed, and `evaluate` returns its
two losses as an iterator that reads the reply when it is unpacked. So a
caller can write many requests before it reads a reply, and the child works
through them while the caller does other work. The child answers every
request in order, one line each. While the bridge waits on the child, a
reply is due `spec.timeout` seconds after the later of the latest request
written and the latest reply read, or the child is killed: a reply's time
counts from when the child could start on its request, so requests queued
ahead of it do not use it up. While the child's stdin pipe is full, a write
reads the child's replies into a buffer, because a child blocked on a full
stdout reads no more requests.
Every bad reply, exit or timeout raises TrainerProtocolError, from whichever
call reads that reply or writes the next request. The waits use
select() on the pipes, so the bridge needs POSIX pipes. A wait for a reply
first polls the child's stdout for up to POLL_BUDGET seconds and only then
sleeps in select() until the reply is due. That pays when the child answers
within the budget on another CPU: against a trainer that answers in tens of
microseconds it made a round trip about 30 % shorter. A slower child
gains nothing and costs the caller the budget in CPU time on each wait. On
one CPU, polling keeps the child from running and made round trips longer,
so the bridge does not poll where os.sched_getaffinity allows one CPU or is
missing; CPU quotas are not seen by that call.

Requests are assembled from templates, byte for byte the line
`json.dumps(msg).encode() + b"\n"` of each message; the search space is
encoded once per bridge. Replies are decoded as UTF-8 (a leading byte order
mark is dropped) before json.loads, so bytes that are not UTF-8 and data
after the reply's object are malformed.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import time
from collections import deque
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's str encoding
from typing import Iterator, Mapping

from .config import ConfigError, typed_value
from .space import SearchSpace
from .trainers import TrainerSpec

SHUTDOWN_TIMEOUT = 10.0  # seconds a child has to exit after "shutdown" before it is killed
POLL_BUDGET = 100e-6  # seconds a wait for a reply polls the child's stdout before it sleeps
_SHUTDOWN = json.dumps({"cmd": "shutdown"}).encode() + b"\n"


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


class _Reply:
    """A sent request's reply: `values` holds its `fields` once it is read.
    `init`, `fork` and `step` return theirs as the pending state token."""

    __slots__ = ("cmd", "fields", "values")

    def __init__(self, cmd: str, fields: tuple[str, ...]):
        self.cmd, self.fields = cmd, fields
        self.values: list | None = None


def _can_poll() -> bool:
    """Whether this process may run on more than one CPU, so that the child
    can answer while the caller polls."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) > 1


class ExternalTrainer:
    """Runs the configured command and proxies the trainer contract over pipes."""

    def __init__(self, spec: TrainerSpec, space: SearchSpace):
        self.spec = spec
        self.space = space
        self._space_json = json.dumps(space.as_config())  # every init request's "space"
        self._poll_budget = POLL_BUDGET if _can_poll() else 0.0
        try:
            self._proc = subprocess.Popen(
                list(spec.command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as exc:
            raise TrainerProtocolError(f"could not start trainer command: {exc}") from exc
        self._stdin = self._proc.stdin.fileno()
        self._stdout = self._proc.stdout.fileno()
        os.set_blocking(self._stdin, False)  # see _write
        self._buffer = bytearray()  # stdout bytes read past the last reply line
        self._unread: deque[_Reply] = deque()  # sent requests whose reply is unread, in order
        # The later of the latest request written and the latest reply line
        # read: the child has spec.timeout seconds from it to answer.
        self._since = time.monotonic()

    def _send(self, cmd: str, body: str, *fields: str) -> _Reply:
        """Write the request `cmd`, whose JSON line ends with `body`, and
        return its reply, whose `fields` must be present."""
        if self._proc.returncode is not None or self._proc.stdin.closed:
            raise TrainerProtocolError("trainer process is not running")
        reply = _Reply(cmd, fields)
        self._write(f'{{"cmd": "{cmd}", {body}}}\n'.encode())
        self._unread.append(reply)
        return reply

    def _remaining(self) -> float:
        """Seconds left before the child's current reply is due."""
        return max(0.0, self._since + self.spec.timeout - time.monotonic())

    def _wait(self, reply: _Reply) -> list:
        """`reply`'s fields, read after every reply to an earlier request."""
        while reply.values is None:
            if not self._unread:
                raise TrainerProtocolError(
                    f"trainer reply to {reply.cmd!r} was lost to an earlier failure or shutdown"
                )
            head = self._unread.popleft()
            line = self._read_line()
            try:
                obj = json.loads(line.decode("utf-8-sig"))
            except (ValueError, RecursionError):  # also not UTF-8, or nested too deep
                obj = None
            if not isinstance(obj, dict) or "ok" not in obj:
                raise TrainerProtocolError(f"malformed trainer reply: {line.rstrip()!r}")
            if not obj["ok"]:
                raise TrainerProtocolError(f"trainer error: {obj.get('error', 'unspecified')}")
            for field in head.fields:
                if field not in obj:
                    raise TrainerProtocolError(f"trainer reply to {head.cmd!r} has no {field!r}")
            head.values = [obj[field] for field in head.fields]
        return reply.values

    def _token(self, state) -> str:
        """The JSON string of `state`'s token, waiting for its reply when it
        is pending."""
        return _quote(str(self._wait(state)[0]) if isinstance(state, _Reply) else state)

    def _write(self, data: bytes) -> None:
        """Write `data` to the child's stdin. While the pipe is full, read the
        child's stdout into the buffer: the child may be blocked writing
        replies, and then it reads no requests."""
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(self._stdin, view):]
                continue
            except BlockingIOError:
                pass
            except BrokenPipeError:
                raise self._exited("stdin") from None
            readable, writable, _ = select.select(
                [self._stdout], [self._stdin], [], self._remaining()
            )
            if readable:
                self._fill()
            elif not writable:
                self._kill()
                raise TrainerProtocolError(
                    f"trainer read no request for {self.spec.timeout}s and was killed"
                )
        self._since = time.monotonic()

    def _read_line(self) -> bytes:
        """The next newline-terminated line from the child's stdout, by its
        due time; a line already waiting in the pipe is taken when late."""
        while (end := self._buffer.find(b"\n")) < 0:
            if not self._poll() and not select.select(
                [self._stdout], [], [], self._remaining()
            )[0]:
                self._kill()
                raise TrainerProtocolError(f"trainer reply timed out after {self.spec.timeout}s")
            self._fill()
        line = bytes(self._buffer[: end + 1])
        del self._buffer[: end + 1]
        return line

    def _poll(self) -> bool:
        """Whether the child's stdout is readable within the poll budget, or
        by the reply's due time if that comes first, asking without sleeping."""
        if not self._poll_budget:
            return False
        until = min(time.monotonic() + self._poll_budget, self._since + self.spec.timeout)
        while not select.select([self._stdout], [], [], 0)[0]:
            if time.monotonic() >= until:
                return False
        return True

    def _fill(self) -> None:
        """Append what the child's stdout holds to the buffer; raise at its end."""
        chunk = os.read(self._stdout, 65536)
        if not chunk:
            raise self._exited("stdout")
        if b"\n" in chunk:  # a reply is complete, so the child may start on the next request
            self._since = time.monotonic()
        self._buffer += chunk

    def _exited(self, pipe: str) -> TrainerProtocolError:
        """The error for a child that closed its `pipe`: its exit code once
        reaped, or a kill when it has not exited by its reply's due time."""
        try:
            code = self._proc.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            self._kill()
            return TrainerProtocolError(
                f"trainer closed its {pipe}, did not exit within {self.spec.timeout}s"
                " and was killed"
            )
        return TrainerProtocolError(f"trainer exited with code {code} mid-conversation")

    # -- trainer contract ----------------------------------------------------

    def init(self, seed: int) -> _Reply:
        return self._send("init", f'"seed": {int(seed)}, "space": {self._space_json}', "state")

    def step_many(self, state, hp: Mapping[str, float], iters: int):
        if iters < 1:
            return state
        hp_json = json.dumps(dict(hp))
        body = f'"state": {self._token(state)}, "hp": {hp_json}, "iters": {int(iters)}'
        return self._send("step", body, "state")

    def evaluate(self, state) -> Iterator[float]:
        return self._losses(self._send("eval", f'"state": {self._token(state)}', "val", "test"))

    def _losses(self, reply: _Reply) -> Iterator[float]:
        """The val and test losses of an "eval" reply, read when unpacked."""
        val, test = self._wait(reply)
        yield _loss(val, "val")
        yield _loss(test, "test")

    def fork(self, state) -> _Reply:
        return self._send("fork", f'"state": {self._token(state)}', "state")

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self):
        """Ask the child to exit, without waiting: write "shutdown" when its
        stdin pipe has room and close the pipe, whose end also tells the child
        to exit. Unread replies are dropped; `close` reaps the child."""
        if self._proc.stdin.closed:
            return
        self._unread.clear()
        try:
            os.write(self._stdin, _SHUTDOWN)  # one line under PIPE_BUF: all of it or nothing
        except OSError:  # a full pipe, or a child that has exited
            pass
        self._proc.stdin.close()

    def close(self):
        """Shut the child down, wait for the end of its stdout and reap it;
        kill it when it has not exited within SHUTDOWN_TIMEOUT seconds."""
        try:
            self.shutdown()
            if self._proc.returncode is None:
                deadline = time.monotonic() + SHUTDOWN_TIMEOUT
                # Wait for EOF on stdout, dropping any late output: select()
                # wakes at once, where Popen.wait(timeout) polls in sleeps.
                while (remaining := deadline - time.monotonic()) > 0:
                    if select.select([self._stdout], [], [], remaining)[0] and not os.read(
                        self._stdout, 65536
                    ):
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
