#ifndef PRODB_MATCH_SHARDING_H_
#define PRODB_MATCH_SHARDING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prodb {

/// Configuration for the query matcher's multi-core match: a batch's
/// seeded re-evaluations split into `num_shards` tasks run on a thread
/// pool, with conflict-set commits kept in the serial order.
/// num_shards <= 1 keeps the serial path untouched.
struct ShardingOptions {
  /// Number of work partitions. 0 or 1 disables sharding.
  size_t num_shards = 0;
  /// ThreadPool workers driving the shards. 0 means one per shard.
  size_t threads = 0;

  bool enabled() const { return num_shards > 1; }
};

/// Per-shard match counters (satellite view next to the global
/// MatcherStats). Single-writer during a batch: each shard's worker is
/// the only mutator, and the barrier publishes before anyone reads.
struct ShardStats {
  uint64_t deltas_routed = 0;      // work items this shard evaluated
  uint64_t conflict_ops = 0;       // instantiations produced for commit
  uint64_t merge_wait_ns = 0;      // idle time between shard finish and
                                   // the merge barrier (imbalance cost)
};

/// Max-over-mean of per-shard routed deltas: 1.0 is a perfect split,
/// num_shards is everything-on-one-shard. Surfaced by the scaling bench.
double ShardImbalance(const std::vector<ShardStats>& stats);

}  // namespace prodb

#endif  // PRODB_MATCH_SHARDING_H_
