"""Unit tests for util: RNG streams, unit formatting, validation."""

import numpy as np
import pytest

from repro.util import (
    GB,
    MB,
    RngStreams,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    derive_seed,
    format_bytes,
    format_duration,
    format_tokens,
    stream,
)
from repro.util.validation import (
    check_count,
    check_positive_int,
    check_shard_concurrency,
    resolve_shard_concurrency,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_different_names_differ(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_different_roots_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_name_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_int_parts_accepted(self):
        assert derive_seed(1, 5, "x") == derive_seed(1, 5, "x")


class TestRngStreams:
    def test_cached_stream_is_same_object(self):
        rngs = RngStreams(3)
        assert rngs.get("x") is rngs.get("x")

    def test_fresh_streams_restart(self):
        rngs = RngStreams(3)
        a = rngs.fresh("x").random(5)
        b = rngs.fresh("x").random(5)
        assert np.allclose(a, b)

    def test_named_streams_are_independent(self):
        rngs = RngStreams(3)
        a = rngs.fresh("x").random(100)
        b = rngs.fresh("y").random(100)
        assert not np.allclose(a, b)

    def test_child_derives_new_root(self):
        rngs = RngStreams(3)
        child = rngs.child("sub")
        assert child.root_seed != rngs.root_seed
        assert child.root_seed == RngStreams(3).child("sub").root_seed

    def test_module_level_stream_matches(self):
        assert np.allclose(stream(5, "q").random(3),
                           RngStreams(5).fresh("q").random(3))


class TestFormatting:
    def test_format_bytes(self):
        assert format_bytes(10) == "10 B"
        assert format_bytes(2 * MB) == "2.00 MiB"
        assert format_bytes(48 * GB) == "48.00 GiB"

    def test_format_duration_units(self):
        assert format_duration(5e-7).endswith("us")
        assert format_duration(0.05).endswith("ms")
        assert format_duration(2.0).endswith("s")
        assert format_duration(300).endswith("min")

    def test_format_duration_negative(self):
        assert format_duration(-0.5).startswith("-")

    def test_format_tokens(self):
        assert format_tokens(500) == "500 tok"
        assert format_tokens(12_800) == "12.8K tok"
        assert format_tokens(3_000_000) == "3.0M tok"


class TestValidation:
    def test_check_positive_passes_and_returns(self):
        assert check_positive("x", 2.5) == 2.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_probability(self):
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability("p", 1.2)

    def test_check_in_range(self):
        assert check_in_range("v", 5, 0, 10) == 5
        with pytest.raises(ValueError):
            check_in_range("v", 11, 0, 10)


class TestCheckCount:
    def test_accepts_integral(self):
        assert check_count("k", 4, minimum=1) == 4
        assert check_count("k", 4.0, minimum=1) == 4
        assert check_count("k", 0) == 0

    def test_rejects_bad_values(self):
        for bad in (0, -1, 1.5, "four", None):
            with pytest.raises(ValueError,
                               match="k must be an integer >= 1"):
                check_count("k", bad, minimum=1)


class TestCheckPositiveInt:
    def test_accepts_integral(self):
        assert check_positive_int("n", 3) == 3
        assert check_positive_int("n", 3.0) == 3
        assert type(check_positive_int("n", 3.0)) is int

    def test_non_positive_keeps_positive_message(self):
        for bad in (0, -2, -0.5):
            with pytest.raises(ValueError, match="n must be > 0"):
                check_positive_int("n", bad)

    def test_rejects_fractions(self):
        for bad in (0.5, 1.5, float("inf")):
            with pytest.raises(ValueError, match="n must be an integer"):
                check_positive_int("n", bad)


class TestShardValidation:

    def test_shard_concurrency_none_passthrough(self):
        assert check_shard_concurrency("sc", None, 4) is None

    def test_shard_concurrency_broadcasts_int(self):
        assert check_shard_concurrency("sc", 2, 3) == [2, 2, 2]

    def test_shard_concurrency_list_with_unbounded_entries(self):
        assert check_shard_concurrency("sc", [1, None, 3], 3) == [1, None, 3]

    def test_shard_concurrency_length_mismatch_names_counts(self):
        with pytest.raises(ValueError,
                           match="2 entries but retrieval_shards is 4"):
            check_shard_concurrency("sc", [1, 2], 4)

    def test_shard_concurrency_bad_entry_names_index(self):
        with pytest.raises(ValueError, match=r"sc\[1\] must be > 0"):
            check_shard_concurrency("sc", [1, -2], 2)

    def test_shard_concurrency_rejects_nonpositive_scalar(self):
        with pytest.raises(ValueError, match="sc must be > 0"):
            check_shard_concurrency("sc", 0, 2)

    def test_shard_concurrency_rejects_fractional_entries(self):
        with pytest.raises(ValueError, match=r"sc\[1\] must be an integer"):
            check_shard_concurrency("sc", [1, 0.5], 2)
        with pytest.raises(ValueError, match="sc must be an integer"):
            check_shard_concurrency("sc", 1.5, 2)


class TestResolveShardConcurrency:
    def test_unbounded_default(self):
        assert resolve_shard_concurrency(None, None, 3) == [None] * 3

    def test_retrieval_concurrency_bounds_the_sole_shard(self):
        assert resolve_shard_concurrency(4, None, 1) == [4]

    def test_shard_concurrency_is_normalised(self):
        assert resolve_shard_concurrency(None, 2, 3) == [2, 2, 2]
        assert resolve_shard_concurrency(None, [1, None], 2) == [1, None]

    def test_idempotent_on_its_output(self):
        per_shard = resolve_shard_concurrency(None, [1, None, 3], 3)
        assert resolve_shard_concurrency(None, per_shard, 3) == per_shard

    def test_retrieval_concurrency_rejected_on_sharded_store(self):
        with pytest.raises(ValueError,
                           match="with 2 shards pass shard_concurrency"):
            resolve_shard_concurrency(4, None, 2)

    def test_both_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            resolve_shard_concurrency(4, 2, 1)

    def test_fractional_retrieval_concurrency_rejected(self):
        with pytest.raises(ValueError,
                           match="retrieval_concurrency must be an integer"):
            resolve_shard_concurrency(0.5, None, 1)
