// E8 — Batched delta propagation through the ChangeSet pipeline.
//
// The §5.2 commit rule makes a transaction's whole ∆ins/∆del visible to
// the maintenance process at once; this sweep measures what the matchers
// do with that: per-delta propagation steps and tuples examined as the
// batch grows {1, 8, 64, 512}. Batch size 1 is what every update outside
// a transaction costs (one-delta batches take the same OnBatch path), so
// its cost must not regress; at larger sizes the Rete network amortizes
// alpha passes per relation group and the query matcher amortizes
// conflict-set passes and negated re-evaluations across the whole batch.
//
// Run with --benchmark_format=json for machine-readable output.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace prodb {
namespace {

WorkloadSpec BatchSpec() {
  // E2-style shape: chained joins over a few classes, dense enough that
  // deltas actually reach the join layers.
  WorkloadSpec spec;
  spec.num_classes = 3;
  spec.attrs_per_class = 4;
  spec.num_rules = 8;
  spec.ces_per_rule = 3;
  spec.domain = 32;
  spec.chain_join = true;
  spec.seed = 71;
  return spec;
}

void RunBatchSweep(benchmark::State& state, const std::string& matcher_name) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto setup = bench::MakeSetup(BatchSpec(), [&](Catalog* c) {
    return bench::MakeMatcherByName(matcher_name, c);
  });
  bench::Preload(*setup, 200, 5);

  const MatcherStats& stats = setup->matcher->stats();
  const uint64_t prop0 = stats.propagations.load();
  const uint64_t tup0 = stats.tuples_examined.load();
  const uint64_t batch0 = stats.batches.load();

  Rng rng(42);
  std::vector<std::pair<std::string, TupleId>> live;
  uint64_t deltas = 0;
  for (auto _ : state) {
    setup->wm->BeginBatch();
    for (size_t k = 0; k < batch_size; ++k) {
      // Steady-state churn: favor deletes once the backlog builds so WM
      // size stays roughly constant across batch sizes.
      if (!live.empty() && rng.Chance(live.size() > 256 ? 0.7 : 0.4)) {
        size_t pick = rng.Uniform(live.size());
        bench::Abort(setup->wm->Delete(live[pick].first, live[pick].second),
                     "delete");
        live[pick] = live.back();
        live.pop_back();
      } else {
        std::string cls =
            setup->gen.ClassName(rng.Uniform(setup->gen.spec().num_classes));
        TupleId id;
        bench::Abort(setup->wm->Insert(cls, setup->gen.RandomTuple(&rng), &id),
                     "insert");
        live.emplace_back(std::move(cls), id);
      }
      ++deltas;
    }
    bench::Abort(setup->wm->CommitBatch(), "commit");
  }

  const double n = deltas > 0 ? static_cast<double>(deltas) : 1.0;
  state.counters["batch_size"] = static_cast<double>(batch_size);
  state.counters["propagations_per_delta"] =
      static_cast<double>(stats.propagations.load() - prop0) / n;
  state.counters["tuples_examined_per_delta"] =
      static_cast<double>(stats.tuples_examined.load() - tup0) / n;
  state.counters["batches"] =
      static_cast<double>(stats.batches.load() - batch0);
  state.SetItemsProcessed(static_cast<int64_t>(deltas));
}

void BM_BatchSweep_Rete(benchmark::State& state) {
  RunBatchSweep(state, "rete");
}
void BM_BatchSweep_ReteDbms(benchmark::State& state) {
  RunBatchSweep(state, "rete-dbms");
}
void BM_BatchSweep_Query(benchmark::State& state) {
  RunBatchSweep(state, "query");
}
void BM_BatchSweep_Pattern(benchmark::State& state) {
  RunBatchSweep(state, "pattern");
}

BENCHMARK(BM_BatchSweep_Rete)->Arg(1)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_BatchSweep_ReteDbms)->Arg(1)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_BatchSweep_Query)->Arg(1)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_BatchSweep_Pattern)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace prodb

BENCHMARK_MAIN();
