// E9 — Trigger / materialized-view maintenance (§2.2, §2.3, §6).
//
// Paper claim: the matching machinery solves view maintenance; Buneman &
// Clemons' triggering "requires recomputing the view after each update
// [which] is very expensive". Compare a full-recompute strategy (run the
// view query after every base update) with incremental maintenance by
// each matcher, as base size grows.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "db/executor.h"

namespace prodb {
namespace {

// View: Emp(dno) ⋈ Dept(dno) restricted to dname = Toy.
ConjunctiveQuery ViewQuery() {
  ConjunctiveQuery q;
  ConditionSpec emp;
  emp.relation = "Emp";
  emp.var_uses.push_back(VarUse{1, 0, CompareOp::kEq});
  ConditionSpec dept;
  dept.relation = "Dept";
  dept.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  dept.constant_tests.push_back(ConstantTest{1, CompareOp::kEq, Value("Toy")});
  q.conditions = {emp, dept};
  q.num_vars = 1;
  return q;
}

void Check(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", st.ToString().c_str());
    std::abort();
  }
}

void SetupBase(Catalog* catalog, size_t base_size, Rng* rng) {
  Relation* rel;
  Check(catalog->CreateRelation(Schema("Emp", {{"name", ValueType::kSymbol},
                                               {"dno", ValueType::kInt}}),
                                &rel));
  Check(catalog->CreateRelation(Schema("Dept", {{"dno", ValueType::kInt},
                                                {"dname", ValueType::kSymbol}}),
                                &rel));
  for (size_t i = 0; i < base_size; ++i) {
    TupleId id;
    Check(catalog->Get("Emp")->Insert(
        Tuple{Value("E" + std::to_string(i)),
              Value(static_cast<int64_t>(rng->Uniform(64)))},
        &id));
  }
  for (int d = 0; d < 64; ++d) {
    TupleId id;
    Check(catalog->Get("Dept")->Insert(
        Tuple{Value(d), Value(rng->Chance(0.3) ? "Toy" : "Other")}, &id));
  }
}

// Baseline: recompute the view after every update (Buneman/Clemons
// without RIU filtering).
void BM_View_Recompute(benchmark::State& state) {
  const size_t base = static_cast<size_t>(state.range(0));
  Catalog catalog;
  Rng rng(3);
  SetupBase(&catalog, base, &rng);
  Executor exec(&catalog);
  ConjunctiveQuery view = ViewQuery();
  for (auto _ : state) {
    TupleId id;
    Check(catalog.Get("Emp")->Insert(
        Tuple{Value("new"), Value(static_cast<int64_t>(rng.Uniform(64)))},
        &id));
    std::vector<QueryMatch> rows;
    Check(exec.Evaluate(view, &rows));
    benchmark::DoNotOptimize(rows.size());
    Check(catalog.Get("Emp")->Delete(id));
  }
  state.counters["base_emps"] = static_cast<double>(base);
}

// Incremental: the matcher reports exactly the affected view rows.
void RunIncremental(benchmark::State& state, const std::string& matcher) {
  const size_t base = static_cast<size_t>(state.range(0));
  Catalog catalog;
  Rng rng(3);
  SetupBase(&catalog, base, &rng);

  Rule rule;
  rule.name = "view";
  rule.lhs = ViewQuery();
  auto m = bench::MakeMatcherByName(matcher, &catalog);
  Check(m->AddRule(rule));
  // Register pre-existing contents with the matcher (view population):
  // one batch over the scanned tuples, as ProductionSystem::ReseedMatcher
  // does.
  ChangeSet population;
  for (const char* cls : {"Emp", "Dept"}) {
    Check(catalog.Get(cls)->Scan([&](TupleId id, const Tuple& t) {
      population.AddInsert(cls, t, id);
      return Status::OK();
    }));
  }
  Check(m->OnBatch(population));
  WorkingMemory wm(&catalog, m.get());

  for (auto _ : state) {
    TupleId id;
    Check(wm.Insert(
        "Emp",
        Tuple{Value("new"), Value(static_cast<int64_t>(rng.Uniform(64)))},
        &id));
    benchmark::DoNotOptimize(m->conflict_set().size());
    Check(wm.Delete("Emp", id));
  }
  state.counters["base_emps"] = static_cast<double>(base);
}

void BM_View_IncrementalPattern(benchmark::State& state) {
  RunIncremental(state, "pattern");
}
void BM_View_IncrementalRete(benchmark::State& state) {
  RunIncremental(state, "rete");
}

BENCHMARK(BM_View_Recompute)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_View_IncrementalPattern)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_View_IncrementalRete)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace prodb

BENCHMARK_MAIN();
