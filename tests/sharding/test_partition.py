"""Partitioner policies and the global ↔ shard-local assignment maps."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.sharding.partition import (
    PARTITIONERS,
    RoundRobinPartitioner,
    ShardAssignment,
    SizeBandedPartitioner,
    make_partitioner,
)
from repro.trees import parse_bracket


class TestRoundRobin:
    def test_cycles_over_shards(self):
        partitioner = RoundRobinPartitioner(3)
        tree = parse_bracket("a")
        assert [partitioner.assign(i, tree) for i in range(7)] == [
            0, 1, 2, 0, 1, 2, 0,
        ]

    def test_ignores_structure(self):
        partitioner = RoundRobinPartitioner(2)
        small, big = parse_bracket("a"), parse_bracket("a(b(c(d(e))))")
        assert partitioner.assign(4, small) == partitioner.assign(4, big)


class TestSizeBanded:
    def test_same_band_colocates(self):
        partitioner = SizeBandedPartitioner(2, band_width=8)
        five = parse_bracket("a(b,c,d,e)")  # |T| = 5
        seven = parse_bracket("a(b,c,d,e,f,g)")  # |T| = 7
        assert partitioner.assign(0, five) == partitioner.assign(99, seven)

    def test_band_boundary_splits(self):
        partitioner = SizeBandedPartitioner(2, band_width=2)
        two = parse_bracket("a(b)")  # band 1
        four = parse_bracket("a(b,c,d)")  # band 2
        assert partitioner.assign(0, two) != partitioner.assign(0, four)

    def test_rejects_bad_band_width(self):
        with pytest.raises(InvalidParameterError):
            SizeBandedPartitioner(2, band_width=0)


class TestRegistry:
    def test_registry_spellings(self):
        assert set(PARTITIONERS) == {"round-robin", "size-banded"}

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    def test_make_partitioner(self, name):
        partitioner = make_partitioner(name, 4)
        assert partitioner.name == name
        assert partitioner.shards == 4

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown partitioner"):
            make_partitioner("hash-ring", 2)

    def test_rejects_zero_shards(self):
        with pytest.raises(InvalidParameterError):
            make_partitioner("round-robin", 0)


class TestShardAssignment:
    def test_bidirectional_maps(self):
        assignment = ShardAssignment(2)
        placements = [0, 1, 1, 0, 1]
        for shard in placements:
            assignment.append(shard)
        assert len(assignment) == 5
        assert assignment.by_shard == [[0, 3], [1, 2, 4]]
        assert assignment.locate == [(0, 0), (1, 0), (1, 1), (0, 1), (1, 2)]
        assert assignment.shard_sizes() == [2, 3]

    def test_local_order_preserves_global_order(self):
        # the k-NN round replay relies on this monotonicity
        assignment = ShardAssignment(3)
        for index in range(20):
            assignment.append(index % 3)
        for members in assignment.by_shard:
            assert members == sorted(members)

    def test_append_returns_both_indices(self):
        assignment = ShardAssignment(2)
        assert assignment.append(1) == (0, 0)
        assert assignment.append(1) == (1, 1)
        assert assignment.append(0) == (2, 0)

    def test_out_of_range_shard_rejected(self):
        assignment = ShardAssignment(2)
        with pytest.raises(InvalidParameterError):
            assignment.append(2)
        with pytest.raises(InvalidParameterError):
            assignment.append(-1)
