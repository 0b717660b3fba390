"""Correctness checks on a run's outputs; each returns a list of problems."""

from __future__ import annotations

from gpbt import GenealogyTree


def check_tree(tree: GenealogyTree, total_epochs: int, ledger: list[int],
               gpbt_ledger: bool) -> list[str]:
    """Epoch accounting, parent membership and, for gpbt runs, the transfer
    ledger (distinct parent states materialized per generation)."""
    problems = []
    records = tree.records
    epochs = sum(r.epochs_trained for r in records)
    if total_epochs != epochs:
        problems.append(f"total_epochs {total_epochs} != sum of epochs_trained {epochs}")
    for r in records:
        if r.parent is not None and r.parent not in tree.parents_of(r.generation):
            problems.append(f"record {r.id}: parent {r.parent} not selected for "
                            f"generation {r.generation}")
            break
    if gpbt_ledger:
        generations = max(r.generation for r in records) + 1
        parents = [set() for _ in range(generations)]
        for r in records:
            parents[r.generation].add(r.parent)
        expected = [1] + [len(p) for p in parents[1:]]
        if list(ledger) != expected:
            problems.append(f"transfer_ledger {list(ledger)} != distinct parents {expected}")
    return problems


def check_round_trip(path, lines: list[str]) -> list[str]:
    """Loading a dumped genealogy and dumping it again gives the same lines."""
    reloaded = list(GenealogyTree.load(path).to_lines())
    if reloaded != lines:
        return [f"{path.name}: dump/load round trip changed the genealogy"]
    return []
