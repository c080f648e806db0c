// The benchmark's three workloads. Each entry point runs one workload
// from set-up to its correctness checks and adds its metrics to *result.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "match/matcher.h"

namespace perfbench {

/// The matcher's work counters, as plain numbers that can be subtracted.
struct MatchCounts {
  uint64_t alpha_tests = 0;
  uint64_t candidates = 0;
  uint64_t index_probes = 0;
  uint64_t probe_tokens = 0;
  uint64_t scan_tokens = 0;
  uint64_t propagations = 0;

  static MatchCounts Of(const prodb::MatcherStats& s) {
    return MatchCounts{s.alpha_tests_evaluated.load(), s.candidates_visited.load(),
                       s.index_probes.load(),          s.probe_tokens_visited.load(),
                       s.scan_tokens_visited.load(),   s.propagations.load()};
  }
  MatchCounts operator-(const MatchCounts& o) const {
    return MatchCounts{alpha_tests - o.alpha_tests,   candidates - o.candidates,
                       index_probes - o.index_probes, probe_tokens - o.probe_tokens,
                       scan_tokens - o.scan_tokens,   propagations - o.propagations};
  }
};

/// Adds the six match.*_per_op metrics: counter deltas per WM op (ingest)
/// or per firing (fire).
void AddMatchPerOp(const MatchCounts& c, double ops, Result* result);

/// Which groups of traced (per-layer) metrics a traced phase reports. A
/// traced run measures every layer on a workload that reaches it, so a
/// workload that does not reach a layer borrows another workload's phase.
enum LayerGroups : unsigned {
  /// setup.*, db.wm_bytes_per_tuple, trace.overhead_frac, match.*_per_op:
  /// measured on the workload the run was asked for.
  kGeneric = 1u << 0,
  /// net.*, txn.*, match.on_batch_us_*, match.conflict_deltas_per_batch.
  kServing = 1u << 1,
  /// storage.*, restart.* (the durable ingest phase only).
  kStorage = 1u << 2,
  /// engine.*, plan.* (the fire phase only).
  kEngine = 1u << 3,
};

/// ingest-mem: two closed-loop clients over TCP loopback against an
/// in-process RuleServer with shipped defaults. The traced phase runs on
/// that server (durable=false) or on a paged, WAL-logged one with durable
/// acks (durable=true).
void RunIngest(const Args& args, Result* result);
void TraceIngest(const Args& args, bool durable, unsigned groups,
                 Result* result);

/// fire: a generated OPS5 program run to quiescence, event by event.
void RunFire(const Args& args, Result* result);
void TraceFire(const Args& args, unsigned groups, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
