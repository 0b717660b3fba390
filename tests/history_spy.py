"""Capture the histories that `run` hands to its searcher."""

import gpbt.orchestrator


def run_with_histories(config, space, trainer):
    """Run `config`; return the result and, for every suggest call, the record
    it produced paired with the history it was given (suggest call i
    produces record i)."""
    histories = []
    real = gpbt.orchestrator.suggest

    def spy(searcher, space, history, rng):
        histories.append(list(history))
        return real(searcher, space, history, rng)

    gpbt.orchestrator.suggest = spy
    try:
        result = gpbt.orchestrator.run(config, space, trainer)
    finally:
        gpbt.orchestrator.suggest = real
    return result, [(result.tree.get(i), h) for i, h in enumerate(histories)]
