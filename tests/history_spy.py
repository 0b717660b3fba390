"""Capture the histories that `run` hands to its searcher, and the bare
searcher loop that a t_max=1 run replays."""

import numpy as np

import gpbt.orchestrator
from gpbt.genealogy import GenealogyTree
from gpbt.orchestrator import init_seed, search_stream
from gpbt.searchers import History, suggest


def bare_searcher_loop(searcher, space, trainer, trials, iters, seed=0):
    """Sequential search with no genealogy: each trial's hp is suggested from
    the unit points and val losses of every earlier trial, and it trains a
    fresh state for `iters` iterations. Returns the (hp, val, test) triples."""
    rng = search_stream(seed)
    u, loss, out = [], [], []
    for k in range(trials):
        hp = suggest(searcher, space, History(np.reshape(u, (k, space.dim)), loss), rng)
        state = trainer.step_many(trainer.init(init_seed(seed, k)), space.to_dict(hp), iters)
        val, test = trainer.evaluate(state)
        u.append(space.to_unit(hp))
        loss.append(val)
        out.append((hp, val, test))
    return out


def run_with_histories(config, space, trainer):
    """Run `config`; return the result and, for every suggest call, the record
    it produced paired with the records its history held (suggest call i
    produces record i). Each history's arrays are checked against those
    records: the unit-space points of their hps and their val losses, in
    the same order."""
    id_lists, histories = [], []
    real_suggest = gpbt.orchestrator.suggest
    real_lineage = GenealogyTree.lineage_history

    def lineage_spy(tree, parent_id, mode, roots):
        ids = real_lineage(tree, parent_id, mode, roots)
        id_lists.append(ids)
        return ids

    def suggest_spy(searcher, space, history, rng):
        histories.append(history)
        return real_suggest(searcher, space, history, rng)

    gpbt.orchestrator.suggest = suggest_spy
    GenealogyTree.lineage_history = lineage_spy
    try:
        result = gpbt.orchestrator.run(config, space, trainer)
    finally:
        gpbt.orchestrator.suggest = real_suggest
        GenealogyTree.lineage_history = real_lineage
    tree = result.tree
    assert len(id_lists) == len(histories) == len(tree)
    calls = []
    for i, (ids, history) in enumerate(zip(id_lists, histories)):
        records = [tree.get(j) for j in ids]
        u = np.array([space.to_unit(r.hp) for r in records]).reshape(len(records), space.dim)
        assert np.array_equal(history.u, u)
        assert history.loss.tolist() == [r.val_loss for r in records]
        calls.append((tree.get(i), records))
    return result, calls
