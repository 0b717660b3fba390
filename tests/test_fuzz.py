"""Adversarial inputs end as a clean exit code or a trainer failure, never a
traceback: a config with one value replaced or one key dropped, a mutated
genealogy.ndjson line, and a random reply line from an external trainer."""

import copy
import json
import sys
import tempfile
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gpbt.cli import main
from gpbt.external import ExternalTrainer, TrainerProtocolError
from gpbt.space import Dimension, SearchSpace
from gpbt.trainers import TrainerSpec

DOUBLE = str(Path(__file__).with_name("trainer_double.py"))

# Two hps and four methods: gpbt with TPE and both gates, gpbt with GP-UCB and
# dynamic c, PBT, and non-adaptive CMA, all small enough to run in milliseconds.
BASE = {
    "space": [
        {"name": "lr", "lower": 0.1, "upper": 2.0, "scale": "log"},
        {"name": "wd", "lower": 0.0, "upper": 1.0, "scale": "linear"},
    ],
    "trainer": {"kind": "phase_surrogate", "dim": 2, "curvatures": [1.2, 0.6], "noise": 0.25,
                "seed": 0, "r_max": 2.0, "timeout": 300},
    "seeds": [0],
    "methods": [
        {"name": "gpbt_tpe", "method": "gpbt", "n": 4, "t_max": 3, "t_g": 2, "c": 1.0,
         "searcher": {"kind": "tpe"}, "history_mode": "sibling_only",
         "early_stop": {"level1_threshold": 1e-3, "level3": True}},
        {"name": "gpbt_gp_ucb", "method": "gpbt", "n": 4, "t_max": 3, "t_g": 2,
         "dynamic_c": {"initial_mean": 2.0, "initial_std": 1.0}, "searcher": {"kind": "gp_ucb"},
         "history_mode": "time_enriched"},
        {"name": "pbt", "method": "pbt", "n": 4, "t_max": 3, "t_g": 2},
        {"name": "random_search", "method": "nonadaptive", "searcher": {"kind": "cma"},
         "trials": 4, "t_total": 6},
    ],
}
TRAINER_KINDS = ["phase_surrogate", "noisy_quadratic", "weight_sensitive"]

# The JSON text of each replacement value.
VALUES = [
    "null", "true", "false", "0", "1", "-1", "2", "3", str(2**63), "0.5", "-0.5",
    "1e308", "1e-320", "NaN", "Infinity", "-Infinity",
    '""', '"x"', '"linear"', '"random"',
    "[]", "[0]", "[1, 2]", '["x"]',
    "{}", '{"x": 1}', '{"kind": "random"}',
]
DEEP = "[" * 100_000


def paths(node, path=()):
    """The path of `node` and of everything inside it, as keys and indices."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from paths(child, path + (key,))


def mutated(document, path, text):
    """The JSON text of `document` with the value at `path` replaced by the
    JSON text `text`, or removed when `text` is None."""
    if not path:
        return "" if text is None else text
    document = copy.deepcopy(document)
    *head, key = path
    parent = document
    for k in head:
        parent = parent[k]
    if text is None:
        del parent[key]
        return json.dumps(document)
    marker = "\0mutant"
    parent[key] = marker
    return json.dumps(document).replace(json.dumps(marker), text)


PATHS = list(paths(BASE))


class TestConfigFuzz:
    @given(kind=st.sampled_from(TRAINER_KINDS), path=st.sampled_from(PATHS),
           text=st.none() | st.sampled_from(VALUES))
    @example(kind="phase_surrogate", path=("methods", 0, "c"), text="1e-320")
    @example(kind="phase_surrogate", path=("methods", 0, "n"), text=str(2**63))
    @example(kind="phase_surrogate", path=("methods", 2, "n"), text=str(2**63))
    @example(kind="noisy_quadratic", path=("methods", 0, "t_g"), text=str(2**63))
    @example(kind="phase_surrogate", path=("trainer", "noise"), text="1e308")
    @example(kind="noisy_quadratic", path=("trainer", "noise"), text="1e308")
    @example(kind="noisy_quadratic", path=("space", 0, "upper"), text="1e308")
    @example(kind="phase_surrogate", path=(), text=DEEP)
    @settings(max_examples=60, deadline=5000)
    def test_run_and_compare_exit_cleanly(self, kind, path, text):
        """`run` exits 0, 2 or 3, and `compare` reads back whatever `run`
        wrote."""
        base = {**BASE, "trainer": {**BASE["trainer"], "kind": kind}}
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(mutated(base, path, text))
            out = Path(tmp) / "out"
            code = main(["run", str(config), "--deterministic", "--out", str(out)])
            assert code in (0, 2, 3)
            if code == 0:
                assert main(["compare", str(config), "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def written_cells(tmp_path_factory):
    """A config and the cells `run` wrote for it, as (config path, out dir)."""
    tmp = tmp_path_factory.mktemp("cells")
    config = tmp / "config.json"
    config.write_text(json.dumps(BASE))
    assert main(["run", str(config), "--deterministic", "--out", str(tmp / "out")]) == 0
    return config, tmp / "out"


def mutated_line(line, path, text):
    """A genealogy line with the value at `path` of its record replaced by the
    JSON text `text` (removed when None); with no path, the line is `text`."""
    if path is None:
        return text
    return mutated(json.loads(line), path, text)


RECORD_PATHS = list(paths(json.loads(
    '{"id": 0, "parent": null, "generation": 0, "hp": [0.5, 0.5], "val_loss": 1.0,'
    ' "test_loss": 1.0, "epochs_trained": 2, "early_stopped": false}')))


class TestGenealogyFuzz:
    @given(cell=st.sampled_from([m["name"] for m in BASE["methods"]]), index=st.integers(0, 40),
           mutation=st.tuples(st.sampled_from(RECORD_PATHS), st.none() | st.sampled_from(VALUES))
           | st.tuples(st.none(), st.text(max_size=40)))
    @example(cell="pbt", index=0, mutation=(None, DEEP))
    @example(cell="gpbt_tpe", index=3, mutation=(("hp", 0), "1e308"))
    # A record on the final best agent's chain: the replay would step it 2**63 times.
    @example(cell="gpbt_tpe", index=5, mutation=(("epochs_trained",), str(2**63)))
    @settings(max_examples=60, deadline=5000)
    def test_compare_exits_0_or_2(self, written_cells, cell, index, mutation):
        config, out = written_cells
        path = out / cell / "0" / "genealogy.ndjson"
        original = path.read_text()
        lines = original.splitlines(keepends=True)
        k = index % len(lines)
        lines[k] = mutated_line(lines[k], *mutation) + "\n"
        try:
            path.write_text("".join(lines))
            assert main(["compare", str(config), "--out", str(out)]) in (0, 2)
        finally:
            path.write_text(original)


def valid_step_reply(line: bytes) -> bool:
    """Whether `line` is a reply the bridge takes for a `step`: a JSON object
    whose "ok" is true and which has a "state"."""
    try:
        obj = json.loads(line.decode("utf-8-sig"))
    except (ValueError, RecursionError):
        return False
    return isinstance(obj, dict) and bool(obj.get("ok", False)) and "state" in obj


REPLY = {"ok": True, "state": "s2"}


class TestReplyFuzz:
    @given(line=st.binary(max_size=60) | st.text(max_size=60).map(str.encode)
           | st.tuples(st.sampled_from(list(paths(REPLY))), st.none() | st.sampled_from(VALUES))
           .map(lambda m: mutated(REPLY, *m).encode()))
    @example(line=DEEP[:50_000].encode())  # an argument of at most 128 KiB as hex
    @example(line=b'{"ok": true, "state": "s2"} {"ok": true}')
    @example(line=b'{"ok": 1e308}')
    @settings(max_examples=25, deadline=None)
    def test_bad_step_reply_raises_trainer_protocol_error(self, line):
        line = line.replace(b"\n", b"")
        assume(not valid_step_reply(line))
        spec = TrainerSpec(kind="external", command=(sys.executable, DOUBLE, "reply", line.hex()),
                           timeout=30.0)
        space = SearchSpace([Dimension("lr", 0.0, 1.0)])
        with closing(ExternalTrainer(spec, space)) as trainer:
            state = trainer.step_many(trainer.init(0), {"lr": 0.5}, 1)
            with pytest.raises(TrainerProtocolError):
                tuple(trainer.evaluate(state))
