"""Capture the histories that `run` hands to its searcher."""

import numpy as np

import gpbt.orchestrator
from gpbt.genealogy import GenealogyTree


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
