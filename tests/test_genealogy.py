import json
import re

import numpy as np
import pytest

from gpbt.baselines import PbtConfig, run_pbt
from gpbt.genealogy import GenealogyTree
from gpbt.space import Dimension, SearchSpace
from gpbt.trainers import TrainerSpec, make_trainer


def record(tree, parent, hp=(0.5,), val=1.0, test=1.1, epochs=1, stopped=False):
    return tree.record_child(parent, hp, val, test, epochs, stopped)


def generation_zero(n=4):
    tree = GenealogyTree()
    for k in range(n):
        record(tree, None, hp=(0.1 * k,), val=float(k))
    return tree


def build_two_by_two(generations=3, n=4):
    """c=1 population: 2 parents x 2 children per generation, losses by id."""
    tree = generation_zero(n)
    prev = list(range(n))
    for g in range(1, generations):
        parents = sorted(prev, key=lambda i: (tree.get(i).val_loss, i))[:2]
        new = []
        for p in parents:
            for j in range(2):
                cid = record(tree, p, hp=(0.001 * len(tree),), val=float(g + j))
                new.append(cid)
        prev = new
    return tree


class TestRecordChild:
    def test_first_record(self):
        tree = GenealogyTree()
        cid = record(tree, None)
        rec = tree.get(cid)
        assert cid == 0 and rec.parent is None and rec.generation == 0

    def test_selected_parent_accepted(self):
        tree = build_two_by_two(2)
        parents = tree.parents_of(1)
        assert parents == (0, 1)
        assert all(tree.get(c).parent in parents for c in range(4, 8))

    def test_parents_of_derived_from_records(self):
        tree = generation_zero(4)
        assert tree.parents_of(0) == () and tree.parents_of(1) == ()
        for parent in (2, 0, 2):
            record(tree, parent)
        assert tree.parents_of(1) == (0, 2)  # distinct, in id order
        assert tree.parents_of(2) == ()

    def test_generation_mismatch_rejected(self, tmp_path):
        # A child is one generation past its parent, so a file record that
        # states another generation is rejected on load.
        records = [json.loads(line) for line in build_two_by_two(2).to_lines()]
        records[5]["generation"] = 2
        path = tmp_path / "tree.ndjson"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ValueError, match="record 5 has generation 2"):
            GenealogyTree.load(path)

    def test_nonzero_generation_needs_parent(self, tmp_path):
        records = [json.loads(line) for line in generation_zero(2).to_lines()]
        records[1]["generation"] = 1
        path = tmp_path / "tree.ndjson"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ValueError, match="record 1 has generation 1"):
            GenealogyTree.load(path)

    def test_gap_in_ids_rejected(self, tmp_path):
        records = [json.loads(line) for line in generation_zero(3).to_lines()]
        del records[1]
        path = tmp_path / "tree.ndjson"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ValueError, match="non-contiguous record id 2"):
            GenealogyTree.load(path)

    def test_out_of_order_ids_rejected(self, tmp_path):
        # dump writes records in id order, so a file in another order is not one of its.
        records = [json.loads(line) for line in generation_zero(3).to_lines()]
        records[0], records[1] = records[1], records[0]
        path = tmp_path / "tree.ndjson"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ValueError, match="non-contiguous record id 1"):
            GenealogyTree.load(path)

    def test_two_records_on_one_line_rejected(self, tmp_path):
        # The lines are decoded as the items of one array: a line holding
        # two records would otherwise read as two items.
        lines = list(generation_zero(3).to_lines())
        path = tmp_path / "tree.ndjson"
        path.write_text(lines[0] + "\n" + lines[1] + ", " + lines[2] + "\n")
        with pytest.raises(ValueError, match="3 JSON values on 2 lines"):
            GenealogyTree.load(path)
        path.write_text("".join(line + "\n\n" for line in lines))  # blank lines are skipped
        assert GenealogyTree.load(path).records == generation_zero(3).records

    def test_zero_epochs_rejected(self):
        tree = generation_zero(2)
        with pytest.raises(ValueError, match="epochs_trained must be >= 1"):
            record(tree, 0, epochs=0)
        assert len(tree) == 2

    def test_ids_are_sequential(self):
        tree = build_two_by_two(3)
        assert [r.id for r in tree.records] == list(range(len(tree)))

    def test_non_finite_loss_rejected(self):
        tree = generation_zero(2)
        with pytest.raises(ValueError):
            record(tree, None, val=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            record(tree, None, val=float("inf"))
        for test in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="test_loss must be finite"):
                record(tree, None, test=test)
        assert len(tree) == 2 and tree.lineage_history(None, "pooled", False) == [0, 1]


class TestAncestry:
    def test_generation_zero_is_singleton(self):
        tree = build_two_by_two(1)
        assert tree.ancestry(2) == [2]

    def test_chain(self):
        tree = GenealogyTree()
        record(tree, None, val=0.0)  # id 0
        for k in range(5):
            record(tree, None, val=float(k + 1))
        record(tree, 0)  # id 6
        cid = record(tree, 6)
        assert tree.ancestry(cid) == [0, 6, cid]

    def test_length_matches_generation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            tree = build_two_by_two(generations=int(rng.integers(1, 6)))
            for rec in tree.records:
                assert len(tree.ancestry(rec.id)) == rec.generation + 1


class TestLineageHistory:
    def test_sibling_only_sees_own_children_so_far(self):
        tree = generation_zero()
        assert tree.lineage_history(0, "sibling_only", False) == []
        a = record(tree, 0, hp=(0.9,), val=0.5)
        assert tree.lineage_history(0, "sibling_only", False) == [a]
        assert tree.lineage_history(1, "sibling_only", False) == []
        b = record(tree, 1, hp=(0.8,), val=0.4)
        assert tree.lineage_history(0, "sibling_only", False) == [a]
        assert tree.lineage_history(1, "sibling_only", False) == [b]

    def test_sibling_only_roots_prepends_generation_zero(self):
        tree = generation_zero()
        a = record(tree, 0, hp=(0.9,), val=0.5)
        record(tree, 1, hp=(0.8,), val=0.4)
        hist = tree.lineage_history(0, "sibling_only", True)
        assert hist == [0, 1, 2, 3, a]

    def test_generation_zero_sees_every_record(self):
        tree = generation_zero(3)
        for mode in ("sibling_only", "time_enriched", "pooled"):
            assert tree.lineage_history(None, mode, False) == [0, 1, 2]

    def test_time_enriched_generation_one(self):
        # n=4 generation-0 children, then 1 evaluated sibling -> 5 observations
        tree = generation_zero()
        assert tree.lineage_history(0, "time_enriched", False) == [0, 1, 2, 3]
        a = record(tree, 0, hp=(0.7,), val=0.3)
        hist = tree.lineage_history(0, "time_enriched", False)
        assert hist == [0, 1, 2, 3, a]
        record(tree, 1, hp=(0.6,), val=0.2)  # the other lineage's child stays out
        assert tree.lineage_history(0, "time_enriched", False) == hist

    def test_time_enriched_three_generations(self):
        # 2 parents x 2 children: at generation 2, before any sibling,
        # the lineage sees 4 gen-0 children + the 2 children of its gen-1 ancestor.
        tree = build_two_by_two(2)  # generation 1: ids 4, 5 under 0; ids 6, 7 under 1
        hist = tree.lineage_history(4, "time_enriched", False)
        assert hist == [0, 1, 2, 3, 4, 5]
        record(tree, 4, hp=(0.01,), val=0.5)
        record(tree, 6, hp=(0.02,), val=0.5)
        assert tree.lineage_history(6, "time_enriched", False) == [0, 1, 2, 3, 6, 7, 9]

    def test_time_enriched_excludes_other_branches(self):
        tree = build_two_by_two(3)
        chain = set(tree.ancestry(8))
        hist = tree.lineage_history(8, "time_enriched", False)
        for rec in map(tree.get, hist):
            assert rec.parent is None or rec.parent in chain

    def test_pooled_sees_everything(self):
        tree = build_two_by_two(3)
        hist = tree.lineage_history(tree.parents_of(2)[0], "pooled", False)
        assert hist == list(range(len(tree)))

    def test_unknown_parent_rejected(self):
        tree = build_two_by_two(2)
        with pytest.raises(KeyError):
            tree.lineage_history(99, "sibling_only", False)

    def test_unknown_mode_rejected(self):
        tree = build_two_by_two(2)
        with pytest.raises(ValueError):
            tree.lineage_history(0, "all", False)


class TestScheduleAndBest:
    def test_generation_zero_schedule(self):
        tree = build_two_by_two(1)
        assert tree.schedule(1) == [(0.1,)]

    def test_schedule_tracks_ancestry(self):
        tree = build_two_by_two(4)
        for rec in tree.records:
            chain = tree.ancestry(rec.id)
            assert tree.schedule(rec.id) == [tree.get(a).hp for a in chain]

    def test_schedule_length_is_generations(self):
        tree = build_two_by_two(5)
        last = max(r.generation for r in tree.records)
        best = tree.best_agent(last)
        assert len(tree.schedule(best)) == 5

    def test_best_agent_tie_goes_to_lower_id(self):
        tree = GenealogyTree()
        for val in (0.5, 0.2, 0.2, 0.9):
            record(tree, None, val=val)
        assert tree.best_agent(0) == 1

    def test_best_agent_of_empty_generation_rejected(self):
        tree = build_two_by_two(2)
        with pytest.raises(ValueError, match="no records for generation 2"):
            tree.best_agent(2)

    def test_ranked_orders_by_loss_then_id(self):
        tree = GenealogyTree()
        for val in (0.5, 0.2, 0.9, 0.2):
            record(tree, None, val=val)
        assert tree.ranked([3, 2, 1, 0]) == [1, 3, 0, 2]
        assert tree.ranked([2, 0]) == [0, 2] and tree.ranked([]) == []
        with pytest.raises(KeyError):
            tree.ranked([0, 4])

    def test_best_agent_matches_linear_scan(self):
        rng = np.random.default_rng(8)
        tree = GenealogyTree()
        vals = rng.random(30)
        for v in vals:
            record(tree, None, val=float(v))
        oracle = min(range(30), key=lambda i: (vals[i], i))
        assert tree.best_agent(0) == oracle


class TestSerialization:
    def test_round_trip_replays_identical_histories(self, tmp_path):
        tree = build_two_by_two(4)
        path = tmp_path / "tree.ndjson"
        tree.dump(path)
        loaded = GenealogyTree.load(path)
        assert loaded.records == tree.records
        for g in (1, 2, 3):
            for parent in tree.parents_of(g):
                assert loaded.lineage_history(
                    parent, "time_enriched", False
                ) == tree.lineage_history(parent, "time_enriched", False)

    def test_pbt_parents_survive_round_trip(self, tmp_path):
        space = SearchSpace([Dimension("lr", 0.01, 1.0, "log")])
        trainer = make_trainer(TrainerSpec(dim=3, noise=0.1))
        result = run_pbt(PbtConfig(n=8, t_max=3, seed=0), space, trainer)
        result.tree.dump(tmp_path / "tree.ndjson")
        loaded = GenealogyTree.load(tmp_path / "tree.ndjson")
        for g in (1, 2):
            parents = {r.parent for r in result.tree.generation_records(g)}
            assert result.tree.parents_of(g) == loaded.parents_of(g) == tuple(sorted(parents))

    @pytest.mark.parametrize(
        "field,value,expected",
        [
            ("epochs_trained", 2.7, "an integer"),
            ("early_stopped", "no", "true or false"),
            ("parent", True, "an integer"),
            ("hp", "ab", "a list"),
            ("hp", [0.1, "x"], "a finite number"),
        ],
    )
    def test_mistyped_field_rejected(self, tmp_path, field, value, expected):
        # Without type checks these would read as 2, True, record 1, ('a', 'b')
        # and (0.1, 'x').
        records = [json.loads(line) for line in build_two_by_two(2).to_lines()]
        records[5][field] = value
        path = tmp_path / "tree.ndjson"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        where = f"{field}[1]" if isinstance(value, list) else field  # a list names its element
        with pytest.raises(ValueError, match=re.escape(f"record 5.{where}: expected {expected}")):
            GenealogyTree.load(path)

    def test_lines_are_json_objects(self):
        tree = build_two_by_two(2)
        for line in tree.to_lines():
            rec = json.loads(line)
            assert set(rec) == {
                "id", "parent", "generation", "hp", "val_loss",
                "test_loss", "epochs_trained", "early_stopped",
            }
