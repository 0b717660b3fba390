#!/usr/bin/env python3
"""Scriptable external-trainer double speaking the line-delimited JSON protocol.

Modes (argv[1], default "quad"):
  quad      deterministic decay: x <- x * (1 - lr) per iteration, val = x^2
  echo      step is a no-op; eval returns a scripted decreasing sequence
  malformed replies to the second message with a non-JSON line
  error     replies ok:false to "step"
  sleep     never replies to "step" (exercises the timeout path)
  nostate   replies {"ok": true} without "state" to "step"
  badval    replies to "eval" with "val": "abc", or with the JSON value in argv[2]
  notutf8   replies to "step" with a line of bytes that are not UTF-8
  trailing  replies to "step" with a reply object followed by more data
  bom       starts each reply to "step" with a UTF-8 byte order mark
  slowstep  takes 20 ms to answer each "step"
  oddtokens names its states in turn with a '"', a '\\', non-ASCII characters
            and a bare JSON number (held under the number's digits)
  closeout  closes its stdout on "step" and keeps running
  exit      exits with code 7 on the second "fork"
  forkerror replies ok:false to "fork"
  forksleep never replies to "fork"
  slowfork  takes 0.2 s to answer each "fork"
  padded    pads every state token to 8 KB, so each init and fork reply (and
            each request naming a state) is at least 8 KB long
  noexit    ignores "shutdown" and keeps running (exercises the kill in close)
  closein   closes its stdin on "init", answers it and exits with code 5; with
            argv[2] "stay" it keeps running instead of exiting
  deaf      never reads stdin
"""

import json
import os
import sys
import time

mode = sys.argv[1] if len(sys.argv) > 1 else "quad"
bad_val = json.loads(sys.argv[2]) if mode == "badval" and len(sys.argv) > 2 else "abc"
states = {}
counter = 0
eval_count = 0
fork_count = 0
msg_count = 0


def fresh(payload):
    global counter
    counter += 1
    token = f"s{counter}"
    if mode == "padded":
        token += "." * 8192
    if mode == "oddtokens":
        token = [counter, f's{counter}"q', f"s{counter}\\b", f"s{counter}\u00e9\u2605"][counter % 4]
        states[str(token)] = payload
        return token
    states[token] = payload
    return token


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if mode == "deaf":
    time.sleep(3600)

for line in sys.stdin:
    msg_count += 1
    if mode == "malformed" and msg_count == 2:
        sys.stdout.write("this is not json\n")
        sys.stdout.flush()
        continue
    msg = json.loads(line)
    cmd = msg["cmd"]
    if cmd == "shutdown":
        if mode == "noexit":
            time.sleep(3600)
        break
    if cmd == "init":
        if mode == "closein":
            os.close(sys.stdin.fileno())
        reply({"ok": True, "state": fresh({"x": 1.0 + (msg["seed"] % 7) * 0.1, "steps": 0})})
        if mode == "closein":
            if sys.argv[2:] == ["stay"]:
                time.sleep(3600)
            sys.exit(5)
    elif cmd == "step":
        if mode == "sleep":
            time.sleep(3600)
        if mode == "error":
            reply({"ok": False, "error": "scripted failure"})
            continue
        if mode == "nostate":
            reply({"ok": True})
            continue
        if mode == "notutf8":
            sys.stdout.buffer.write(b'{"ok": true, "state": "\xff\xfe"}\n')
            sys.stdout.buffer.flush()
            continue
        if mode == "trailing":
            sys.stdout.write('{"ok": true, "state": "s1"} {"ok": true}\n')
            sys.stdout.flush()
            continue
        if mode == "closeout":
            os.close(sys.stdout.fileno())
            time.sleep(60)
            break
        if mode == "slowstep":
            time.sleep(0.02)
        st = dict(states[msg["state"]])
        if mode != "echo":
            lr = float(msg["hp"].get("lr", 0.0))
            for _ in range(int(msg["iters"])):
                st["x"] *= 1.0 - lr
        st["steps"] += int(msg["iters"])
        if mode == "bom":
            sys.stdout.buffer.write(b"\xef\xbb\xbf")  # the text layer holds nothing unflushed
        reply({"ok": True, "state": fresh(st)})
    elif cmd == "eval":
        st = states[msg["state"]]
        if mode == "echo":
            eval_count += 1
            val = 1.0 / eval_count
        else:
            val = st["x"] * st["x"]
        if mode == "badval":
            reply({"ok": True, "val": bad_val, "test": 1.0})
            continue
        reply({"ok": True, "val": val, "test": val * 1.01})
    elif cmd == "fork":
        fork_count += 1
        if mode == "exit" and fork_count == 2:
            sys.exit(7)
        if mode == "forksleep":
            time.sleep(3600)
        if mode == "slowfork":
            time.sleep(0.2)
        if mode == "forkerror":
            reply({"ok": False, "error": "scripted fork failure"})
            continue
        reply({"ok": True, "state": fresh(dict(states[msg["state"]]))})
    else:
        reply({"ok": False, "error": f"unknown command {cmd!r}"})
