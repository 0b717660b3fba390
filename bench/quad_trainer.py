#!/usr/bin/env python3
"""External trainer for the cli_external workload, speaking gpbt's NDJSON protocol.

Same semantics as the "quad" mode of the test double in tests/: deterministic
decay x <- x * (1 - lr) per iteration, val = x^2, test = 1.01 * val. The
benchmark keeps its own copy so that edits to the test doubles cannot change
what cli_external measures.
"""

import json
import sys

states = {}
counter = 0


def fresh(payload):
    global counter
    counter += 1
    token = f"s{counter}"
    states[token] = payload
    return token


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


for line in sys.stdin:
    msg = json.loads(line)
    cmd = msg["cmd"]
    if cmd == "shutdown":
        break
    if cmd == "init":
        reply({"ok": True, "state": fresh({"x": 1.0 + (msg["seed"] % 7) * 0.1, "steps": 0})})
    elif cmd == "step":
        st = dict(states[msg["state"]])
        lr = float(msg["hp"].get("lr", 0.0))
        for _ in range(int(msg["iters"])):
            st["x"] *= 1.0 - lr
        st["steps"] += int(msg["iters"])
        reply({"ok": True, "state": fresh(st)})
    elif cmd == "eval":
        val = states[msg["state"]]["x"] ** 2
        reply({"ok": True, "val": val, "test": val * 1.01})
    elif cmd == "fork":
        reply({"ok": True, "state": fresh(dict(states[msg["state"]]))})
    else:
        reply({"ok": False, "error": f"unknown command {cmd!r}"})
