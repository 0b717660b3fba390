import json
import os
import subprocess
import sys
import signal
import threading
import time
from contextlib import closing
from pathlib import Path

import pytest

from gpbt import cli, external
from gpbt.cli import main
from gpbt.external import ExternalTrainer, TrainerProtocolError
from gpbt.orchestrator import EarlyStopConfig, FixedC, RunConfig, run
from gpbt.searchers import SearcherConfig
from gpbt.space import Dimension, SearchSpace
from gpbt.trainers import TrainerSpec, make_trainer

DOUBLE = str(Path(__file__).with_name("trainer_double.py"))
SRC = Path(__file__).resolve().parents[1] / "src"


def external_spec(mode="quad", timeout=30.0):
    return TrainerSpec(kind="external", command=(sys.executable, DOUBLE, mode), timeout=timeout)


def space():
    return SearchSpace([Dimension("lr", 0.0, 1.0, "linear")])


class TestBridgeBasics:
    def test_init_step_eval_fork_shutdown(self):
        with closing(ExternalTrainer(external_spec(), space())) as trainer:
            s0 = trainer.init(3)
            s1 = trainer.step_many(s0, {"lr": 0.5}, 1)
            val, test = trainer.evaluate(s1)
            assert val == pytest.approx((1.3 * 0.5) ** 2)
            assert test == pytest.approx(val * 1.01)
            s2 = trainer.step_many(s1, {"lr": 0.5}, 2)
            assert trainer.evaluate(s2)[0] < val

    def test_fork_then_diverge(self):
        with closing(ExternalTrainer(external_spec(), space())) as trainer:
            a = trainer.init(0)
            b = trainer.fork(a)
            a2 = trainer.step_many(a, {"lr": 0.9}, 1)
            b2 = trainer.step_many(b, {"lr": 0.1}, 1)
            assert trainer.evaluate(a2) != trainer.evaluate(b2)
            # the fork source is still addressable and unchanged
            assert trainer.evaluate(b)[0] == pytest.approx(1.0)

    def test_dead_command_is_handshake_error(self):
        spec = TrainerSpec(kind="external", command=("/nonexistent/trainer-binary",))
        with pytest.raises(TrainerProtocolError):
            ExternalTrainer(spec, space())

    def test_scripted_error_reply(self):
        with closing(ExternalTrainer(external_spec("error"), space())) as trainer:
            s = trainer.init(0)
            with pytest.raises(TrainerProtocolError, match="scripted failure"):
                trainer.step_many(s, {"lr": 0.5}, 1)

    def test_malformed_reply_names_line(self):
        with closing(ExternalTrainer(external_spec("malformed"), space())) as trainer:
            s = trainer.init(0)
            with pytest.raises(TrainerProtocolError, match="not json"):
                trainer.step_many(s, {"lr": 0.5}, 1)

    @pytest.mark.parametrize(
        "val", ["true", "1" + "0" * 400, "NaN", "Infinity", "-Infinity"],
        ids=["bool", "overflowing_int", "nan", "infinity", "minus_infinity"],
    )
    def test_eval_needs_numbers(self, val):
        spec = TrainerSpec(kind="external", command=(sys.executable, DOUBLE, "badval", val))
        with closing(ExternalTrainer(spec, space())) as trainer:
            with pytest.raises(TrainerProtocolError, match="'val' must be a finite number"):
                trainer.evaluate(trainer.init(0))

    def test_pending_reply_is_due_from_its_request_not_its_first_use(self):
        with closing(ExternalTrainer(external_spec("forksleep", timeout=1.0), space())) as trainer:
            state = trainer.step_many(trainer.init(0), {"lr": 0.5}, 1)
            sent = time.monotonic()
            pending = trainer.fork(state)
            time.sleep(0.8)
            with pytest.raises(TrainerProtocolError, match="timed out"):
                trainer.step_many(pending, {"lr": 0.5}, 1)
            # Due 1 s after the fork was written, not 1 s after it was first used.
            assert 1.0 <= time.monotonic() - sent < 1.5
            assert trainer._proc.returncode == -signal.SIGKILL

    def test_queued_replies_are_due_from_the_reply_before(self):
        # Four forks of 0.2 s each, written at once: the last is answered
        # 0.8 s after it was written, but within 0.5 s of the reply before it.
        with closing(ExternalTrainer(external_spec("slowfork", timeout=0.5), space())) as trainer:
            state = trainer.step_many(trainer.init(0), {"lr": 0.5}, 1)
            forks = [trainer.fork(state) for _ in range(4)]
            assert trainer.evaluate(trainer.step_many(forks[-1], {"lr": 0.5}, 1))[0] < 1.0

    def test_timeout(self):
        with closing(ExternalTrainer(external_spec("sleep", timeout=0.5), space())) as trainer:
            s = trainer.init(0)
            with pytest.raises(TrainerProtocolError, match="timed out"):
                trainer.step_many(s, {"lr": 0.5}, 1)
            # the timed-out child was killed and reaped
            with pytest.raises(TrainerProtocolError, match="not running"):
                trainer.evaluate(s)

    def test_no_thread_started(self):
        before = threading.active_count()
        with closing(ExternalTrainer(external_spec(), space())) as trainer:
            assert threading.active_count() == before
            trainer.evaluate(trainer.init(0))
            assert threading.active_count() == before

    def test_close_reaps_a_child_that_exits(self):
        trainer = ExternalTrainer(external_spec(), space())
        trainer.evaluate(trainer.init(0))
        trainer.close()
        assert trainer._proc.returncode == 0

    def test_close_before_any_request_shuts_the_child_down(self):
        # A trainer made one cell ahead whose cell never ran.
        trainer = ExternalTrainer(external_spec(), space())
        started = time.monotonic()
        trainer.close()
        assert time.monotonic() - started < external.SHUTDOWN_TIMEOUT / 2
        assert trainer._proc.returncode == 0  # exited on "shutdown", not killed

    def test_shutdown_drops_unread_replies(self):
        trainer = ExternalTrainer(external_spec(), space())
        pending = trainer.init(0)
        trainer.shutdown()
        with pytest.raises(TrainerProtocolError, match="lost to an earlier failure or shutdown"):
            trainer.step_many(pending, {"lr": 0.5}, 1)
        trainer.close()  # reads the unread init reply up to the end of stdout
        assert trainer._proc.returncode == 0

    def test_close_kills_a_child_that_ignores_shutdown(self, monkeypatch):
        monkeypatch.setattr(external, "SHUTDOWN_TIMEOUT", 0.3)
        trainer = ExternalTrainer(external_spec("noexit"), space())
        trainer.evaluate(trainer.init(0))
        started = time.monotonic()
        trainer.close()
        assert 0.3 <= time.monotonic() - started < 5.0
        assert trainer._proc.returncode == -signal.SIGKILL  # killed and reaped

    def test_make_trainer_requires_space(self):
        with pytest.raises(ValueError):
            make_trainer(external_spec())


class TestWriteFailures:
    # A request written to a child that has closed its stdin, or that reads
    # none: each raises, and the child is reaped.
    def test_closed_stdin_then_exit(self, reaped_processes):
        with closing(ExternalTrainer(external_spec("closein"), space())) as trainer:
            state = trainer.init(0)
            with pytest.raises(TrainerProtocolError, match="exited with code 5 mid-conversation"):
                trainer.step_many(state, {"lr": 0.5}, 1)
        assert [proc.returncode for proc in reaped_processes] == [5]

    def test_closed_stdin_while_running_is_killed(self, reaped_processes):
        spec = TrainerSpec(kind="external", command=(sys.executable, DOUBLE, "closein", "stay"),
                           timeout=0.5)
        with closing(ExternalTrainer(spec, space())) as trainer:
            state = trainer.init(0)
            started = time.monotonic()
            with pytest.raises(TrainerProtocolError, match=r"closed its stdin, did not exit within"
                               r" 0\.5s and was killed"):
                trainer.step_many(state, {"lr": 0.5}, 1)
            assert 0.4 <= time.monotonic() - started < 3.0
        assert [proc.returncode for proc in reaped_processes] == [-signal.SIGKILL]

    def test_request_larger_than_a_pipe_to_a_child_that_reads_none(self, reaped_processes):
        wide = SearchSpace([Dimension(f"x{i}", 0.0, 1.0, "linear") for i in range(30_000)])
        assert len(json.dumps(wide.as_config())) > 1 << 20  # more than any pipe holds
        with closing(ExternalTrainer(external_spec("deaf", timeout=0.5), wide)) as trainer:
            started = time.monotonic()
            with pytest.raises(TrainerProtocolError, match=r"read no request for 0\.5s and was killed"):
                trainer.init(0)
            assert time.monotonic() - started < 3.0
        assert [proc.returncode for proc in reaped_processes] == [-signal.SIGKILL]


class TestEndToEnd:
    def test_orchestrator_runs_through_bridge(self):
        with closing(ExternalTrainer(external_spec(), space())) as trainer:
            config = RunConfig(
                n=6, t_max=3, t_g=2, c=FixedC(1.5),
                searcher=SearcherConfig(kind="random"), seed=0,
            )
            result = run(config, space(), trainer)
            assert len(result.tree.records) == 18
            assert result.total_epochs == 36
            vals = [p.best_seen_val for p in result.curves]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_echo_double_with_scripted_losses(self):
        with closing(ExternalTrainer(external_spec("echo"), space())) as trainer:
            config = RunConfig(
                n=4, t_max=2, t_g=1, c=FixedC(1.0),
                searcher=SearcherConfig(kind="random"), seed=0,
            )
            result = run(config, space(), trainer)
            # scripted sequence 1, 1/2, 1/3, ... means the last child is best
            assert result.best_agent == len(result.tree.records) - 1

    def test_level3_through_bridge(self):
        with closing(ExternalTrainer(external_spec(), space())) as trainer:
            config = RunConfig(
                n=6, t_max=3, t_g=3, c=FixedC(1.5),
                searcher=SearcherConfig(kind="random"), seed=1,
                early_stop=EarlyStopConfig(level3=True),
            )
            result = run(config, space(), trainer)
            assert result.total_epochs == sum(r.epochs_trained for r in result.tree.records)

    def test_many_parents_share_one_bridge(self):
        # every parent's children fork and train through one trainer process
        with closing(ExternalTrainer(external_spec(), space())) as trainer:
            config = RunConfig(
                n=12, t_max=3, t_g=2, c=FixedC(0.75),
                searcher=SearcherConfig(kind="random"), seed=2,
            )
            result = run(config, space(), trainer)
            assert len(result.tree.records) == 36
            assert result.total_epochs == 72

    def test_longest_timeout_completes_a_run(self):
        # the wait on the pipe must accept any timeout that TrainerSpec accepts
        spec = external_spec(timeout=threading.TIMEOUT_MAX)
        with closing(ExternalTrainer(spec, space())) as trainer:
            config = RunConfig(
                n=4, t_max=2, t_g=1, c=FixedC(1.0),
                searcher=SearcherConfig(kind="random"), seed=0,
            )
            result = run(config, space(), trainer)
            assert len(result.tree.records) == 8


def cli_config(tmp_path, mode, timeout, seeds=(0,), **method):
    """A one-method config over `mode` of the double: n=4 and c=1 (2 parents
    with 2 children each) unless `method` overrides them."""
    cfg = {
        "space": [{"name": "lr", "lower": 0.0, "upper": 1.0, "scale": "linear"}],
        "trainer": {"kind": "external", "command": [sys.executable, DOUBLE, mode],
                    "timeout": timeout},
        "seeds": list(seeds),
        "methods": [{"method": "gpbt", "n": 4, "t_max": 3, "t_g": 1, "c": 1.0,
                     "searcher": {"kind": "random"}, **method}],
    }
    path = tmp_path / f"{mode}.json"
    path.write_text(json.dumps(cfg))
    return path


class TestProcessFailures:
    @pytest.mark.parametrize("mode", ["nostate", "badval", "notutf8", "closeout"])
    def test_bad_reply_exits_3(self, tmp_path, mode):
        # in a subprocess, so that a hang fails the test instead of the suite
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "gpbt.cli", "run", str(cli_config(tmp_path, mode, 2.0)),
                "--out", str(tmp_path / "out")]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("trainer failure:") and "Traceback" not in proc.stderr

    def test_exit_mid_generation_exits_3(self, tmp_path, capsys, reaped_processes):
        # With 3 forks per parent (n=8, c=2: 2 parents with 4 children each),
        # gpbt often meets the exit in a write of a later fork, not a read.
        for method in ({}, {"n": 8, "c": 2.0}):
            path = cli_config(tmp_path, "exit", 30.0, **method)
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
            assert "exited with code 7" in capsys.readouterr().err
        assert [proc.returncode for proc in reaped_processes] == [7, 7]

    def test_failed_fork_exits_3(self, tmp_path, capsys, reaped_processes):
        path = cli_config(tmp_path, "forkerror", 30.0)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == "trainer failure: trainer error: scripted fork failure\n"
        assert [proc.returncode for proc in reaped_processes] == [0]  # shut down, not killed

    def test_unanswered_fork_times_out(self, tmp_path, capsys, reaped_processes):
        path = cli_config(tmp_path, "forksleep", 1.0)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "timed out after 1.0s" in capsys.readouterr().err
        assert [proc.returncode for proc in reaped_processes] == [-signal.SIGKILL]

    def test_slow_queued_forks_complete_a_run(self, tmp_path, reaped_processes):
        # Two parents with 6 children each: each parent's 5 forks of 0.2 s
        # are written at once, and the last is answered 1 s after it was
        # written, twice the timeout, but 0.2 s after the reply before it.
        path = cli_config(tmp_path, "slowfork", 0.5, n=12, c=3.0, t_max=2)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert [proc.returncode for proc in reaped_processes] == [0]

    def test_large_replies_never_block_a_write(self, tmp_path, reaped_processes):
        # One parent with 64 children: its 63 forks, 8 KB each, are written
        # before any reply is read, so the child's stdout pipe fills, and then
        # its stdin pipe. A write that waited on a full pipe would hang, so
        # an alarm kills the children, which breaks the pipes, and fails.
        def deadlocked(signum, frame):
            for proc in reaped_processes:
                proc.kill()
            raise TimeoutError("gpbt run did not finish within 60 s")

        method = {"n": 64, "c": 64.0, "t_max": 2}
        previous = signal.signal(signal.SIGALRM, deadlocked)
        signal.alarm(60)
        try:
            for mode in ("padded", "quad"):
                path = cli_config(tmp_path, mode, 30.0, **method)
                assert main(["run", str(path), "--deterministic",
                             "--out", str(tmp_path / mode)]) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        padded, quad = (tmp_path / mode / "gpbt" / "0" / "genealogy.ndjson"
                        for mode in ("padded", "quad"))
        assert padded.read_bytes() == quad.read_bytes()
        assert [proc.returncode for proc in reaped_processes] == [0, 0]

    def test_failed_cell_closes_the_next_cells_trainer(self, tmp_path, reaped_processes):
        path = cli_config(tmp_path, "exit", 30.0, seeds=(0, 1))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        # Seed 1's process was made while seed 0 ran, and shut down unused.
        assert [proc.returncode for proc in reaped_processes] == [7, 0]

    def test_failed_make_trainer_closes_the_trainer_made_before(
        self, tmp_path, monkeypatch, reaped_processes
    ):
        made = []

        def make_trainer_once(spec, space):
            if made:
                raise TrainerProtocolError("scripted start-up failure")
            made.append(make_trainer(spec, space))
            return made[-1]

        monkeypatch.setattr(cli, "make_trainer", make_trainer_once)
        path = cli_config(tmp_path, "quad", 30.0, seeds=(0, 1))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert [proc.returncode for proc in reaped_processes] == [0]

    def test_interrupt_closes_every_trainer(self, tmp_path, monkeypatch, reaped_processes):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run", interrupted)
        path = cli_config(tmp_path, "quad", 30.0, seeds=(0, 1, 2))
        with pytest.raises(KeyboardInterrupt):
            main(["run", str(path), "--out", str(tmp_path / "out")])
        # The first cell's process and the one made ahead for the second.
        assert [proc.returncode for proc in reaped_processes] == [0, 0]
