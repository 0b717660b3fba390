"""Population ancestry: append-only agent records, lineage histories, schedules.

A lineage history is the list of record ids a searcher learns from; the tree
holds no search space, so its caller maps those records into unit space.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

from .config import build
from .space import HpVector

HISTORY_MODES = ("sibling_only", "time_enriched", "pooled")

# `json.dumps(obj, sort_keys=True)` builds a new encoder per call; one shared
# encoder with the same settings writes the same bytes.
_encode_record = json.JSONEncoder(sort_keys=True).encode


@dataclass(frozen=True)
class AgentRecord:
    id: int
    parent: int | None  # None for generation-0 children (virtual root)
    generation: int
    hp: HpVector
    val_loss: float
    test_loss: float
    epochs_trained: int
    early_stopped: bool


class GenealogyTree:
    """Append-only ancestry tree; ids are assigned in evaluation order."""

    def __init__(self):
        self._records: list[AgentRecord] = []
        self._children: dict[int | None, list[int]] = {}  # parent (None = root) -> ids
        self._generations: dict[int, list[AgentRecord]] = {}  # generation -> records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[AgentRecord, ...]:
        return tuple(self._records)

    def get(self, agent_id: int) -> AgentRecord:
        if not 0 <= agent_id < len(self._records):
            raise KeyError(f"unknown agent id {agent_id}")
        return self._records[agent_id]

    def parents_of(self, generation: int) -> tuple[int, ...]:
        """The distinct parents of the generation's records, in id order."""
        return tuple(sorted({r.parent for r in self.generation_records(generation)} - {None}))

    def record_child(
        self,
        parent: int | None,
        hp: HpVector,
        val_loss: float,
        test_loss: float,
        epochs_trained: int,
        early_stopped: bool,
    ) -> int:
        """Append a child of `parent` (None for the root); its generation is
        0 under the root and otherwise one past the parent's."""
        generation = self._next_generation(parent, epochs_trained)
        for name, loss in (("val_loss", val_loss), ("test_loss", test_loss)):
            if not math.isfinite(loss):
                raise ValueError(f"{name} must be finite")
        return self._append(AgentRecord(
            id=len(self._records),
            parent=parent,
            generation=generation,
            hp=tuple(hp),
            val_loss=float(val_loss),
            test_loss=float(test_loss),
            epochs_trained=int(epochs_trained),
            early_stopped=bool(early_stopped),
        ))

    def _next_generation(self, parent: int | None, epochs_trained: int) -> int:
        """The generation of a new child of `parent`, which must train at
        least one epoch."""
        generation = 0 if parent is None else self.get(parent).generation + 1
        if epochs_trained < 1:
            raise ValueError("epochs_trained must be >= 1")
        return generation

    def _append(self, record: AgentRecord) -> int:
        """Append `record`, whose id is the record count, and return its id."""
        self._records.append(record)
        self._children.setdefault(record.parent, []).append(record.id)
        self._generations.setdefault(record.generation, []).append(record)
        return record.id

    def ancestry(self, agent_id: int) -> list[int]:
        """Root-first chain of ids ending at agent_id."""
        chain = [agent_id]
        rec = self.get(agent_id)
        while rec.parent is not None:
            chain.append(rec.parent)
            rec = self.get(rec.parent)
        chain.reverse()
        return chain

    def lineage_history(self, parent_id: int | None, mode: str, roots: bool) -> list[int]:
        """The ids of the records the searcher learns from for one child of
        `parent_id`: every recorded child of a set S of parents, in evaluation
        (id) order, where None stands for the virtual root.

        sibling_only:   S = {parent}, plus the root when `roots` is true.
        time_enriched:  S = the root plus the parent's ancestry chain.
        pooled:         every record (the ablation mode); so is a
                        generation-0 child's history (parent_id None).

        A parent's children are one generation past it, and ids follow
        evaluation order, so concatenating S root first keeps id order.
        `Tally` passes `roots` False; it stays a parameter only because
        the benchmark tracer (bench/tracing.py) wraps this method as a
        function of exactly four arguments.
        """
        if mode not in HISTORY_MODES:
            raise ValueError(f"unknown history mode {mode!r}")
        if parent_id is not None:
            self.get(parent_id)  # an unknown parent raises in every mode
        if parent_id is None or mode == "pooled":
            return list(range(len(self._records)))
        if mode == "sibling_only":
            sources = [None, parent_id] if roots else [parent_id]
        else:
            sources = [None, *self.ancestry(parent_id)]
        return [i for s in sources for i in self._children.get(s, ())]

    def schedule(self, agent_id: int) -> list[HpVector]:
        """Hyperparameter schedule along the ancestry chain, root first."""
        return [self._records[a].hp for a in self.ancestry(agent_id)]

    def ranked(self, ids: Iterable[int]) -> list[int]:
        """The ids best first: the one ranking behind parent selection, PBT's
        truncation, the dynamic-c winner and every best agent. Lower val_loss
        ranks first; ties go to the lower id."""
        return sorted(ids, key=lambda i: (self.get(i).val_loss, i))

    def best_agent(self, generation: int) -> int:
        """The first-ranked record of a generation."""
        candidates = self._generations.get(generation)
        if not candidates:
            raise ValueError(f"no records for generation {generation}")
        return self.ranked(r.id for r in candidates)[0]

    def generation_records(self, generation: int) -> list[AgentRecord]:
        return list(self._generations.get(generation, ()))

    # -- persistence (newline-delimited JSON, one record per line) ----------

    def to_lines(self) -> Iterable[str]:
        for r in self._records:
            # vars, not dataclasses.asdict: the same JSON without a per-field deep copy
            yield _encode_record(vars(r))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.to_lines():
                fh.write(line + "\n")

    @classmethod
    def load(cls, path) -> "GenealogyTree":
        """The tree `dump` wrote to `path`, its lines decoded as the items of
        one JSON array; raises ValueError unless that array is valid with one
        item per line, on a record with a missing, unknown or mistyped field,
        or out of id order, and on a record `record_child` would refuse or
        give another generation."""
        tree = cls()
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        entries = json.loads("[" + ",".join(lines) + "]")
        if len(entries) != len(lines):
            raise ValueError(f"{len(entries)} JSON values on {len(lines)} lines")
        for i, entry in enumerate(entries):
            rec = build(AgentRecord, entry, f"record {i}")
            if rec.id != i:
                raise ValueError(f"non-contiguous record id {rec.id}")
            # build has checked that both losses are finite.
            if tree._next_generation(rec.parent, rec.epochs_trained) != rec.generation:
                raise ValueError(f"record {i} has generation {rec.generation}, "
                                 "not its parent's + 1")
            tree._append(rec)
        return tree
