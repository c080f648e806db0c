// fire: a seeded OPS5 program, generated as source and installed with
// LoadString, on an in-process ProductionSystem (Rete, cost-based join
// planning on). Working memory holds jobs: items that advance through
// stages along links and through gates, blocked by negated blockers that
// other rules remove. Nothing matches until a group's Go tuple arrives;
// each event inserts the Go tuples of several groups and runs the
// recognize-act cycle to quiescence — delete-driven cascades of chain
// joins, negations and conflict resolution, pending together, with no wire
// and no WAL.
#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "core/production_system.h"
#include "workloads.h"

namespace perfbench {
namespace {

using prodb::ProductionSystem;
using prodb::Rng;
using prodb::Status;
using prodb::Tuple;
using prodb::Value;

constexpr int kStages = 4;
constexpr int kItemsPerJob = 8;
constexpr int kKeys = 6;
constexpr int kGates = 3;
constexpr int kJobsPerGroup = 4;
/// Groups per round, and groups (cascades) per event.
constexpr int kGroups = 512;
constexpr size_t kCascadesPerEvent = 16;
constexpr size_t kMinRounds = 3;
/// Restarts after each round; one restart takes about 0.5 s and varies
/// by a third from one to the next, so restart_s is a median over many,
/// spread over the run.
constexpr size_t kRestartsPerRound = 2;

const char* const kClasses[] = {"Go", "Job", "Item", "Link", "Gate", "Block"};

/// One rule: positive condition elements, negated ones after them, and
/// an action on the positive CE tagged `target`.
struct RuleSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> positive;  // tag, CE text
  std::vector<std::string> negated;
  std::string target;  // tag of the CE the action names
  std::string action;  // "modify ^a v" or "remove"
};

std::string Render(const RuleSpec& spec) {
  std::string out = "(p " + spec.name;
  size_t target = 0;
  for (size_t i = 0; i < spec.positive.size(); ++i) {
    out += "\n  " + spec.positive[i].second;
    if (spec.positive[i].first == spec.target) target = i + 1;
  }
  for (const std::string& n : spec.negated) out += "\n  -" + n;
  const size_t space = spec.action.find(' ');
  out += "\n  -->\n  (" + spec.action.substr(0, space) + " " + std::to_string(target);
  if (space != std::string::npos) out += spec.action.substr(space);
  return out + "))\n";
}

/// The program: per stage an advance rule (a five-CE chain join guarded
/// by a negated blocker) and an unblock rule, plus gate opening (negated
/// CE), item retirement and job closing. The seed orders the rules, which
/// fixes rule indices, network build order and conflict-resolution ties.
std::string Program(uint64_t seed) {
  const std::pair<std::string, std::string> go{"go", "(Go ^grp <g>)"};
  const std::pair<std::string, std::string> job{"job", "(Job ^grp <g> ^id <j>)"};
  const std::string last = std::to_string(kStages);
  std::vector<RuleSpec> rules;
  for (int s = 0; s < kStages; ++s) {
    const std::string st = std::to_string(s);
    rules.push_back({"advance-" + st,
                     {go,
                      job,
                      {"item", "(Item ^job <j> ^stage " + st + " ^key <k>)"},
                      {"link", "(Link ^job <j> ^key <k> ^stage " + st + " ^to <m>)"},
                      {"gate", "(Gate ^job <j> ^id <m> ^open 1)"}},
                     {"(Block ^job <j> ^key <k> ^stage " + st + ")"},
                     "item",
                     "modify ^stage " + std::to_string(s + 1)});
    rules.push_back({"unblock-" + st,
                     {go,
                      job,
                      {"block", "(Block ^job <j> ^key <k> ^stage " + st + ")"},
                      {"item", "(Item ^job <j> ^key <k> ^stage " + st + " ^hot 1)"}},
                     {},
                     "block",
                     "remove"});
  }
  rules.push_back({"open-gate",
                   {go, job, {"gate", "(Gate ^job <j> ^id <m> ^open 0)"}},
                   {"(Item ^job <j> ^stage 0)"},
                   "gate",
                   "modify ^open 1"});
  rules.push_back({"finish-item",
                   {go, job, {"item", "(Item ^job <j> ^stage " + last + " ^key <k>)"}},
                   {},
                   "item",
                   "remove"});
  rules.push_back({"close-job",
                   {go, {"job", "(Job ^grp <g> ^id <j> ^state run)"}},
                   {"(Item ^job <j> ^stage < " + last + " ^hot 1)"},
                   "job",
                   "modify ^state done"});
  Rng rng(seed * 2654435761ULL + 99);
  for (size_t i = rules.size(); i > 1; --i) std::swap(rules[i - 1], rules[rng.Uniform(i)]);
  std::string src =
      "(literalize Go grp)\n"
      "(literalize Job id grp state)\n"
      "(literalize Item job slot stage key hot)\n"
      "(literalize Link job key stage to)\n"
      "(literalize Gate job id open)\n"
      "(literalize Block job key stage)\n";
  for (const RuleSpec& r : rules) src += Render(r);
  return src;
}

/// `k` distinct positions out of `n`, chosen by the seed.
std::vector<uint8_t> Choose(Rng* rng, int n, int k) {
  std::vector<uint8_t> pick(static_cast<size_t>(n), 0);
  for (int i = 0; i < k; ++i) pick[static_cast<size_t>(i)] = 1;
  for (size_t i = pick.size(); i > 1; --i) {
    std::swap(pick[i - 1], pick[rng->Uniform(i)]);
  }
  return pick;
}

/// The preloaded working memory of one round: every job's tuples. Per job
/// the counts are fixed (half the items hot, 4 in 5 (stage, key) pairs
/// linked, 1 in 5 blocked, 2 of 3 gates open), so every seed gives the
/// relations the same cardinalities; the seed decides which tuples.
std::vector<std::pair<std::string, Tuple>> WorkingSet(uint64_t seed) {
  Rng rng(seed * 40503ULL + 7);
  constexpr int kPairs = kStages * kKeys;
  std::vector<std::pair<std::string, Tuple>> out;
  for (int64_t j = 0; j < int64_t{kGroups} * kJobsPerGroup; ++j) {
    out.emplace_back("Job", Tuple{Value(j), Value(j / kJobsPerGroup), Value("run")});
    const std::vector<uint8_t> hot = Choose(&rng, kItemsPerJob, kItemsPerJob / 2);
    for (int64_t i = 0; i < kItemsPerJob; ++i) {
      out.emplace_back("Item", Tuple{Value(j), Value(i), Value(int64_t{0}),
                                     Value(static_cast<int64_t>(rng.Uniform(kKeys))),
                                     Value(int64_t{hot[static_cast<size_t>(i)] ? 1 : 0})});
    }
    const std::vector<uint8_t> linked = Choose(&rng, kPairs, kPairs * 4 / 5);
    const std::vector<uint8_t> blocked = Choose(&rng, kPairs, kPairs / 5);
    for (int64_t p = 0; p < kPairs; ++p) {
      const Value stage(p / kKeys), key(p % kKeys);
      if (linked[static_cast<size_t>(p)]) {
        out.emplace_back("Link", Tuple{Value(j), key, stage,
                                       Value(static_cast<int64_t>(rng.Uniform(kGates)))});
      }
      if (blocked[static_cast<size_t>(p)]) {
        out.emplace_back("Block", Tuple{Value(j), key, stage});
      }
    }
    const std::vector<uint8_t> open = Choose(&rng, kGates, 2);
    for (int64_t m = 0; m < kGates; ++m) {
      out.emplace_back("Gate", Tuple{Value(j), Value(m),
                                     Value(int64_t{open[static_cast<size_t>(m)] ? 1 : 0})});
    }
  }
  return out;
}

/// The order groups arrive in: a seeded permutation.
std::vector<int64_t> Groups(uint64_t seed) {
  Rng rng(seed * 7919ULL + 3);
  std::vector<int64_t> out(kGroups);
  for (int i = 0; i < kGroups; ++i) out[i] = i;
  for (size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.Uniform(i)]);
  return out;
}

prodb::ProductionSystemOptions FireOptions() {
  prodb::ProductionSystemOptions opts;
  opts.matcher = prodb::MatcherKind::kRete;
  opts.planner.enable = true;
  return opts;
}

/// A system set up for a round. Set-up loads the program and, in one bulk
/// batch, the working memory without any Go tuple. Event e then inserts
/// the Go tuples of its kCascadesPerEvent groups in one batch, so that
/// many cascades are pending together when the engine runs.
class Round {
 public:
  Round(const std::string& program,
        const std::vector<std::pair<std::string, Tuple>>& wm,
        const std::vector<int64_t>& groups)
      : groups_(groups) {
    const int64_t t0 = NowNs();
    ps_ = std::make_unique<ProductionSystem>(FireOptions());
    Require(ps_->LoadString(program), "load program");
    const int64_t t1 = NowNs();
    prodb::WorkingMemory& w = ps_->working_memory();
    w.BeginBatch();
    for (const auto& [cls, tuple] : wm) Require(w.Insert(cls, tuple), "preload");
    Require(w.CommitBatch(), "preload");
    load_s = static_cast<double>(t1 - t0) * 1e-9;
    fill_s = SecondsSince(t1);
  }

  ProductionSystem& ps() { return *ps_; }

  size_t events() const { return groups_.size() / kCascadesPerEvent; }

  /// Event e's working-memory change: the Go tuples of its groups.
  Status Begin(size_t e) {
    prodb::WorkingMemory& w = ps_->working_memory();
    w.BeginBatch();
    for (size_t i = e * kCascadesPerEvent; i < (e + 1) * kCascadesPerEvent; ++i) {
      PRODB_RETURN_IF_ERROR(w.Insert("Go", Tuple{Value(groups_[i])}));
    }
    return w.CommitBatch();
  }

  double load_s = 0;
  double fill_s = 0;

 private:
  const std::vector<int64_t>& groups_;
  std::unique_ptr<ProductionSystem> ps_;
};

std::vector<std::pair<std::string, Tuple>> Snapshot(ProductionSystem& ps) {
  std::vector<std::pair<std::string, Tuple>> out;
  for (const char* cls : kClasses) {
    Require(ps.catalog().Get(cls)->Scan([&](prodb::TupleId, const Tuple& t) {
              out.emplace_back(cls, t);
              return Status::OK();
            }),
            "scan");
  }
  return out;
}

/// Order-independent digest of working memory contents.
uint64_t Digest(ProductionSystem& ps) {
  std::vector<std::string> rows;
  for (auto& [cls, t] : Snapshot(ps)) {
    std::string row = cls + ":";
    t.SerializeTo(&row);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = Fnv1a("");
  for (const std::string& row : rows) h = Fnv1a(row, h);
  return h;
}

double UserBytes(const std::vector<std::pair<std::string, Tuple>>& wm) {
  double total = 0;
  for (const auto& [cls, t] : wm) {
    std::string s;
    t.SerializeTo(&s);
    total += static_cast<double>(s.size());
  }
  return total;
}

/// What the Step loop saw for the events of one round.
struct Reference {
  std::vector<uint64_t> firings;  // per event
  uint64_t total_firings = 0;
  uint64_t stale_skipped = 0;
  uint64_t digest = 0;
};

/// Runs event e through a Step() loop, one span per firing. Returns
/// seconds.
double StepEvent(Round* round, size_t e, Tracer* tracer, Reference* ref) {
  prodb::SequentialEngine& engine = round->ps().sequential_engine();
  const int64_t t0 = NowNs();
  Scope root(tracer, "fire.event", e);
  {
    Scope s(tracer, "wm.event", e, root.id());
    Require(round->Begin(e), "event");
  }
  uint64_t fired_here = 0;
  for (;;) {
    prodb::EngineRunResult step;
    bool fired = false;
    const int span = tracer->Begin("engine.step", e, root.id());
    Require(engine.Step(&fired, &step), "step");
    tracer->End(span);
    ref->stale_skipped += step.stale_skipped;
    if (!fired) {
      tracer->Rename(span, "engine.step_idle");
      break;
    }
    ++fired_here;
  }
  ref->firings.push_back(fired_here);
  ref->total_firings += fired_here;
  return SecondsSince(t0);
}

/// A whole round as an untraced Step() loop: the reference the Run() path
/// is checked against.
Reference StepLoop(Round* round) {
  Tracer off(false);
  Reference ref;
  for (size_t e = 0; e < round->events(); ++e) StepEvent(round, e, &off, &ref);
  ref.digest = Digest(round->ps());
  return ref;
}

/// One event outside the Step loop: its WM change, then Run() to
/// quiescence.
Status RunEvent(Round* round, size_t e, prodb::EngineRunResult* run) {
  PRODB_RETURN_IF_ERROR(round->Begin(e));
  return round->ps().Run(run);
}

/// Restart of the volatile system: a fresh process state rebuilt from a
/// working-memory snapshot; the rebuilt state must stay quiescent.
double Restart(const std::string& program,
               const std::vector<std::pair<std::string, Tuple>>& wm,
               Result* result) {
  const int64_t t0 = NowNs();
  const std::vector<int64_t> no_groups;
  Round r(program, wm, no_groups);
  const double seconds = SecondsSince(t0);
  prodb::EngineRunResult run;
  Require(r.ps().Run(&run), "run after restart");
  result->Check(run.firings == 0, "restarted working memory is quiescent");
  return seconds;
}

}  // namespace

void RunFire(const Args& args, Result* result) {
  const std::string program = Program(args.seed);
  const auto wm = WorkingSet(args.seed);
  const auto order = Groups(args.seed);

  Reference ref;
  {
    Round r(program, wm, order);
    ref = StepLoop(&r);
  }
  if (args.fault == Fault::kFireCount) ref.firings[0] += 1;

  // Whole rounds, every event timed, run until --seconds of event time
  // has passed. Each round does the same work, so throughput is the
  // median of the per-round rates.
  const double heap_before = HeapMb();
  std::vector<double> setups, rates, latency_us, restarts;
  double timed_s = 0, space_amp = 0, heap_mb = 0;
  while (timed_s < args.seconds || setups.size() < kMinRounds) {
    auto r = std::make_unique<Round>(program, wm, order);
    setups.push_back(r->load_s + r->fill_s);
    double round_s = 0, round_firings = 0;
    for (size_t e = 0; e < r->events(); ++e) {
      const int64_t t0 = NowNs();
      prodb::EngineRunResult run;
      Status st = RunEvent(r.get(), e, &run);
      const double dt = SecondsSince(t0);
      round_s += dt;
      round_firings += static_cast<double>(run.firings);
      latency_us.push_back(dt * 1e6);
      result->attempted += 1;
      result->failed += st.ok() ? 0 : 1;
      if (!result->Check(st.ok(), "event run: " + st.ToString())) continue;
      result->Check(!run.exhausted && !run.halted,
                    "event ran to quiescence (not exhausted, not halted)");
      result->Check(run.firings == ref.firings[e],
                    "event firing count equals the Step loop's");
    }
    timed_s += round_s;
    rates.push_back(round_firings / round_s);
    result->Check(Digest(r->ps()) == ref.digest, "final WM digest equals the Step loop's");
    if (heap_mb == 0) heap_mb = HeapMb() - heap_before;
    const auto final_wm = Snapshot(r->ps());
    if (space_amp == 0) {
      space_amp = static_cast<double>(r->ps().catalog().FootprintBytes()) /
                  UserBytes(final_wm);
    }
    r.reset();  // the restarts run once the round's system is gone
    for (size_t i = 0; i < kRestartsPerRound; ++i) {
      restarts.push_back(Restart(program, final_wm, result));
    }
  }

  result->Add("throughput_per_s", Median(rates), "1/s");
  result->Add("latency_p50_us", Percentile(latency_us, 0.5), "us");
  // About 200 events fit the window, so p95 is the highest percentile with
  // 10 samples beyond it.
  result->Add("latency_tail_us", Percentile(latency_us, 0.95), "us");
  result->Add("setup_s", Median(setups), "s");
  result->Add("restart_s", Median(restarts), "s");
  result->Add("space_amp", space_amp, "ratio");
  result->Add("heap_mb", heap_mb, "MiB");
  std::fprintf(stderr, "perfbench: %zu timed events in %zu rounds\n",
               latency_us.size(), setups.size());
}

void TraceFire(const Args& args, unsigned groups, Result* result) {
  const std::string program = Program(args.seed);
  const auto wm = WorkingSet(args.seed);
  const auto order = Groups(args.seed);

  // The round with one Run() per event, the path the untraced run times,
  // as the cross-check of the Step loops that follow.
  std::vector<uint64_t> plain_firings;
  uint64_t plain_digest = 0;
  {
    Round plain(program, wm, order);
    for (size_t e = 0; e < plain.events(); ++e) {
      prodb::EngineRunResult run;
      Require(RunEvent(&plain, e, &run), "event");
      plain_firings.push_back(run.firings);
      result->attempted += 1;
      result->Check(!run.exhausted && !run.halted, "event ran to quiescence");
    }
    plain_digest = Digest(plain.ps());
  }

  // The same round as two Step() loops in lockstep, one untraced and one
  // with a span per firing. Each event runs on both, so the median of the
  // per-event time ratios is the spans' overhead.
  Tracer off(false), tracer(true);
  Round quiet(program, wm, order), traced(program, wm, order);
  Reference quiet_ref, ref;
  std::vector<double> ratios;
  const MatchCounts before = MatchCounts::Of(traced.ps().matcher().stats());
  for (size_t e = 0; e < traced.events(); ++e) {
    const double untraced_s = StepEvent(&quiet, e, &off, &quiet_ref);
    ratios.push_back(StepEvent(&traced, e, &tracer, &ref) / untraced_s);
  }
  const prodb::MatcherStats& stats = traced.ps().matcher().stats();
  const MatchCounts match = MatchCounts::Of(stats) - before;
  ref.digest = Digest(traced.ps());
  if (args.fault == Fault::kFireCount) ref.firings[0] += 1;
  result->Check(plain_firings == ref.firings,
                "per-event firing counts equal the Step loop's");
  result->Check(quiet_ref.firings == ref.firings,
                "untraced and traced Step loops fire alike");
  result->Check(plain_digest == ref.digest, "final WM digest equals the Step loop's");

  const double f = static_cast<double>(ref.total_firings);
  result->Count("fire.firings", ref.total_firings);
  result->Count("fire.digest", ref.digest);
  result->Count("fire.match.alpha_tests", match.alpha_tests);
  result->Count("fire.match.candidates", match.candidates);
  result->Count("fire.match.index_probes", match.index_probes);
  result->Count("fire.match.probe_tokens", match.probe_tokens);
  result->Count("fire.match.scan_tokens", match.scan_tokens);
  result->Count("fire.match.propagations", match.propagations);
  result->Count("fire.plan.replans", stats.replans.load());
  result->Count("fire.plan.est_card_err_millinats", stats.est_card_err_millinats.load());
  result->Count("fire.plan.est_card_samples", stats.est_card_samples.load());

  if (groups & kGeneric) {
    size_t live = 0;
    for (const char* cls : kClasses) live += traced.ps().catalog().Get(cls)->Count();
    result->Add("setup.load_ms", traced.load_s * 1e3, "ms");
    result->Add("setup.fill_ms", traced.fill_s * 1e3, "ms");
    result->Add("db.wm_bytes_per_tuple",
                static_cast<double>(traced.ps().catalog().FootprintBytes()) /
                    static_cast<double>(live),
                "B");
    result->Add("trace.overhead_frac", Median(ratios) - 1, "frac");
    AddMatchPerOp(match, f, result);
  }
  if (groups & kEngine) {
    std::vector<double> steps = tracer.Durations("engine.step");
    result->Add("engine.step_us_p50", Percentile(steps, 0.5) * 1e-3, "us");
    result->Add("engine.step_us_p99", Percentile(steps, 0.99) * 1e-3, "us");
    result->Add("engine.stale_skip_ratio",
                static_cast<double>(ref.stale_skipped) /
                    static_cast<double>(ref.stale_skipped + ref.total_firings),
                "frac");
    result->Add("engine.firings_per_event", f / static_cast<double>(ref.firings.size()),
                "count");
    result->Add("plan.replans", static_cast<double>(stats.replans.load()), "count");
    result->Add("plan.est_err_mnats",
                stats.est_card_samples.load() == 0
                    ? 0
                    : static_cast<double>(stats.est_card_err_millinats.load()) /
                          static_cast<double>(stats.est_card_samples.load()),
                "mnats");
  }
  if (!tracer.WriteTsv(args.work_dir + "/trace-fire.tsv")) {
    std::fprintf(stderr, "perfbench: could not write trace file\n");
  }
}

}  // namespace perfbench
