// End-to-end HQL benchmark: replays one seeded workload's statement stream
// through hql::Executor::Execute, one statement per call (single client,
// closed loop), and prints its metrics.
//
//   bench_e2e --workload churn|reshape --seed N --seconds S
//             --trace 0|1 [--scale full|toy]
//
// --trace 0 measures the end-to-end metrics: set-up time (the median of
// three set-ups), statements per second and read latency percentiles (each
// statement's least time over the replays that follow the set-ups), all
// corrected for the host's speed (see "Host speed" below), and peak RSS. --trace 1 replays the same stream twice on fresh databases:
// untraced through Execute, then traced, driving each layer's public
// functions from this file with a timer around every call. It reports the
// per-layer metrics and checks that both replays produced the same output
// for every statement.
//
// Every run checks its outputs: each COUNT in the stream against the
// generator's model, and each relation's final COUNT against the model
// (tree workloads) or the cardinality of the explicated flat relation
// (reshape). On a mismatch it prints correct=false with no metrics and
// exits 1. The last line of stdout is one JSON object; lines before it
// starting with '#' are a human-readable report.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "algebra/aggregate.h"
#include "common/thread_pool.h"
#include "core/explicate.h"
#include "core/integrity.h"
#include "flat/flat_relation.h"
#include "hql/executor.h"
#include "hql/lexer.h"
#include "hql/parser.h"
#include "hql/resolve.h"
#include "io/text_dump.h"
#include "plan/execute.h"
#include "plan/explain.h"
#include "plan/planner.h"
#include "plan/rewrite.h"
#include "workload.h"

namespace bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;
using hirel::Result;
using hirel::hql::Executor;

uint64_t NsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// FNV-1a over a statement's output (or its error), for the digest check.
uint64_t Digest(const Result<std::string>& out) {
  std::string text =
      out.ok() ? *out : "error: " + out.status().ToString();
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Nearest-rank percentile of unsorted samples (ns), in ms.
double PercentileMs(std::vector<uint64_t> ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(ns.size())));
  rank = std::clamp<size_t>(rank, 1, ns.size());
  return static_cast<double>(ns[rank - 1]) / 1e6;
}

/// Peak resident set of this process, MiB: VmHWM, which starts afresh at
/// exec (getrusage's ru_maxrss would carry over the launcher's peak).
/// Empty when /proc/self/status has no VmHWM line.
std::optional<double> PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return std::nullopt;
  std::optional<double> mb;
  char line[256];
  while (!mb && std::fgets(line, sizeof line, status) != nullptr) {
    unsigned long long kib = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
      mb = static_cast<double>(kib) / 1024.0;
    }
  }
  std::fclose(status);
  return mb;
}

// --------------------------------------------------------------------------
// Host speed.
//
// On a shared VM the same statement stream runs up to 1.8 times slower in
// one run than in a run a few minutes later: other tenants slow this one
// down, in spells that last from seconds to minutes. The untraced runner
// therefore measures the host's speed as it goes. After each stream
// statement (after each few milliseconds of set-up) it runs a fixed
// kernel, the probe, for a quarter of that statement's time, and divides
// the statement's time by the probe's slowdown in the blocks just before
// and after it: their time over the probe's nominal time. The probe makes
// and frees small vectors, as the engine makes and frees items and
// bindings. On the host described in NOTES.md the engine's stream time
// rose in proportion with such a kernel's time (slope 0.96 on a log
// scale, correlation 0.93, 17 runs); a multiply chain, a hash-table
// kernel and a pointer chase tracked it less well. The probe is this
// file's own code, the same on every commit, so corrected times compare
// commits at one host speed.

/// The probe blocks that bracket one timed statement or set-up segment.
struct Probed {
  uint64_t ns = 0;  // wall time of the statement or segment
  size_t before = 0, after = 0;
};

class HostProbe {
 public:
  HostProbe() { Run(kWarmUpNs); }

  /// Runs probe chunks for about `ns` (at least one); returns the block.
  size_t Run(uint64_t ns) {
    Block block;
    auto start = Clock::now();
    do {
      Chunk();
      ++block.chunks;
      block.ns = NsSince(start);
    } while (block.ns < ns);
    blocks_.push_back(block);
    return blocks_.size() - 1;
  }

  /// Runs a block sized to follow `work_ns` of timed work.
  size_t After(uint64_t work_ns) {
    return Run(std::max(kMinBlockNs, work_ns / 4));
  }

  /// How many times slower than nominal the host ran blocks a and b.
  double Slowdown(size_t a, size_t b) const {
    return static_cast<double>(blocks_[a].ns + blocks_[b].ns) /
           (static_cast<double>(blocks_[a].chunks + blocks_[b].chunks) *
            kNominalChunkNs);
  }

  /// A timing divided by the host's slowdown around it.
  double Corrected(const Probed& p) const {
    return static_cast<double>(p.ns) / Slowdown(p.before, p.after);
  }

  /// Mean slowdown over the run, warm-up excluded.
  double MeanSlowdown() const {
    double ns = 0, chunks = 0;
    for (size_t i = 1; i < blocks_.size(); ++i) {
      ns += static_cast<double>(blocks_[i].ns);
      chunks += static_cast<double>(blocks_[i].chunks);
    }
    return chunks == 0 ? 1.0 : ns / (chunks * kNominalChunkNs);
  }

 private:
  /// The unit of corrected time: a corrected timing is what the timing
  /// would have been had each probe chunk around it taken this long.
  static constexpr double kNominalChunkNs = 60'000;
  static constexpr uint64_t kMinBlockNs = 300'000;
  static constexpr uint64_t kWarmUpNs = 50'000'000;

  /// One chunk: 800 small vectors made, and a window of the last 32 kept
  /// by erasing from its front, which moves the rest.
  void Chunk() {
    std::vector<std::vector<uint32_t>> window;
    for (uint32_t i = 0; i < 800; ++i) {
      rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
      window.emplace_back(2 + (rng_ >> 61), i);
      if (window.size() > 32) window.erase(window.begin());
    }
    sink_ = sink_ + window.back()[0];
  }

  struct Block {
    uint64_t ns = 0;
    uint64_t chunks = 0;
  };
  std::vector<Block> blocks_;
  uint64_t rng_ = 1;
  volatile uint64_t sink_ = 0;  // keeps the chunks from being optimized away
};

/// Tallies of one replay: attempts, failures, output mismatches and the
/// per-statement latencies and digests of the stream.
struct Replay {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> mismatches;
  std::vector<uint64_t> latency_ns;  // per stream statement
  std::vector<uint64_t> digests;     // per stream statement
  uint64_t stream_ns = 0;
  double setup_s = 0;
  // With a host probe: the probe blocks around each stream statement and
  // around each segment of the set-up.
  std::vector<Probed> stream_probed;
  std::vector<Probed> setup_probed;

  void Check(const Stmt& stmt, const Result<std::string>& out) {
    ++attempted;
    if (!out.ok()) {
      ++failed;
      if (mismatches.size() < 5) {
        mismatches.push_back(stmt.text + " -> " + out.status().ToString());
      }
      return;
    }
    if (!stmt.expect.empty() && *out != stmt.expect && mismatches.size() < 5) {
      mismatches.push_back(stmt.text + " -> '" + *out + "', expected '" +
                           stmt.expect + "'");
    }
  }
};

// --------------------------------------------------------------------------
// Per-layer accounting for the traced replay.

struct Layers {
  uint64_t wall_ns = 0;
  uint64_t lex_ns = 0, parse_ns = 0, resolve_ns = 0, render_ns = 0;
  uint64_t integrity_ns = 0, integrity_calls = 0;
  uint64_t commit_ns = 0;
  uint64_t compile_ns = 0, rewrite_ns = 0, execute_ns = 0;
  uint64_t cache_get_ns = 0, cache_gets = 0;
  uint64_t consolidate_ns = 0, consolidates = 0;
  uint64_t derive_ns = 0, hierarchy_ns = 0, other_exec_ns = 0;
  uint64_t probes = 0, rows_scanned = 0, rows_out = 0;
  uint64_t pool_chunks = 0, pool_busy_ns = 0, pool_wall_ns = 0;

  uint64_t attributed_ns() const {
    return lex_ns + parse_ns + resolve_ns + render_ns + integrity_ns +
           commit_ns + compile_ns + rewrite_ns + execute_ns + cache_get_ns +
           consolidate_ns + derive_ns + hierarchy_ns + other_exec_ns;
  }
};

/// Times `fn` into `*bucket`.
template <typename Fn>
auto Timed(uint64_t* bucket, Fn&& fn) {
  auto start = Clock::now();
  auto result = fn();
  *bucket += NsSince(start);
  return result;
}

/// Base relations whose subsumption graph ExecutePlan will take from the
/// cache: the input of a consolidate, explicate or aggregate node when that
/// input is a scan of a stored relation (plan/execute.cc, GraphFor).
void CacheConsulted(const hirel::plan::PlanNode& node,
                    const hirel::Database& db,
                    std::vector<const hirel::HierarchicalRelation*>* out) {
  using hirel::plan::PlanOp;
  if ((node.op == PlanOp::kConsolidate || node.op == PlanOp::kExplicate ||
       node.op == PlanOp::kAggregate) &&
      !node.children.empty() && node.children[0]->op == PlanOp::kScan) {
    auto rel = db.GetRelation(node.children[0]->relation);
    if (rel.ok()) out->push_back(*rel);
  }
  for (const auto& child : node.children) CacheConsulted(*child, db, out);
}

/// Drives one statement through the layers' public functions, timing each
/// call. Facts outside a transaction, SELECT, COUNT, EXPLICATE and EXPLAIN
/// PLAN are taken apart here; every other statement goes through
/// Executor::ExecuteStatement and is timed as the layer it belongs to.
class TracedRunner {
 public:
  TracedRunner(Executor& ex, Layers& layers) : ex_(ex), l_(layers) {}

  Result<std::string> Run(const std::string& text) {
    auto start = Clock::now();
    Result<std::string> out = RunInner(text);
    l_.wall_ns += NsSince(start);
    return out;
  }

 private:
  Result<std::string> RunInner(const std::string& text) {
    using namespace hirel::hql;
    auto tokens = Timed(&l_.lex_ns, [&] { return hirel::Tokenize(text); });
    if (!tokens.ok()) return tokens.status();
    auto parsed = Timed(&l_.parse_ns,
                        [&] { return ParseTokens(std::move(*tokens)); });
    if (!parsed.ok()) return parsed.status();
    if (parsed->size() != 1) {
      return hirel::Status::InvalidArgument("expected one statement");
    }
    const Statement& st = (*parsed)[0];
    if (const auto* fact = std::get_if<FactStmt>(&st); fact && !in_txn_) {
      return Captured([&] { return Fact(*fact); });
    }
    if (std::holds_alternative<SelectStmt>(st) ||
        std::holds_alternative<CountStmt>(st) ||
        std::holds_alternative<ExplicateStmt>(st)) {
      return Captured([&] { return Plannable(st); });
    }
    if (const auto* explain = std::get_if<ExplainPlanStmt>(&st);
        explain && !explain->analyze) {
      return Captured([&] { return ExplainPlan(*explain); });
    }
    return Routed(st);
  }

  /// Runs a directly driven statement with pool chunk capture on.
  template <typename Fn>
  Result<std::string> Captured(Fn&& fn) {
    hirel::ThreadPool::Shared().StartChunkCapture();
    auto start = Clock::now();
    Result<std::string> out = fn();
    uint64_t ns = NsSince(start);
    CountChunks(hirel::ThreadPool::Shared().StopChunkCapture(), ns);
    return out;
  }

  void CountChunks(const std::vector<hirel::ThreadPool::ChunkSpan>& spans,
                   uint64_t statement_ns) {
    if (spans.empty()) return;
    l_.pool_chunks += spans.size();
    for (const auto& span : spans) l_.pool_busy_ns += span.dur_ns;
    l_.pool_wall_ns += statement_ns;
  }

  Result<std::string> Fact(const hirel::hql::FactStmt& stmt) {
    using Kind = hirel::hql::FactStmt::Kind;
    auto relation = ex_.database().GetRelation(stmt.relation);
    if (!relation.ok()) return relation.status();
    hirel::HierarchicalRelation& rel = **relation;
    auto item = Timed(&l_.resolve_ns, [&] {
      return hirel::hql::ResolveItem(rel.schema(), stmt.terms,
                                     stmt.kind != Kind::kRetract);
    });
    if (!item.ok()) return item.status();
    ++l_.integrity_calls;
    hirel::Status status = Timed(&l_.integrity_ns, [&] {
      switch (stmt.kind) {
        case Kind::kAssert:
          return hirel::GuardedInsert(rel, std::move(*item),
                                      hirel::Truth::kPositive, ex_.options())
              .status();
        case Kind::kDeny:
          return hirel::GuardedInsert(rel, std::move(*item),
                                      hirel::Truth::kNegative, ex_.options())
              .status();
        case Kind::kRetract:
          break;
      }
      return hirel::GuardedErase(rel, *item, ex_.options());
    });
    if (!status.ok()) return status;
    switch (stmt.kind) {
      case Kind::kAssert:
        return "asserted into '" + stmt.relation + "'\n";
      case Kind::kDeny:
        return "denied in '" + stmt.relation + "'\n";
      case Kind::kRetract:
        break;
    }
    return "retracted from '" + stmt.relation + "'\n";
  }

  Result<std::string> Plannable(const hirel::hql::Statement& st) {
    using namespace hirel;
    Database& db = ex_.database();
    auto compiled = Timed(&l_.compile_ns,
                          [&] { return plan::CompileStatement(db, st); });
    if (!compiled.ok()) return compiled.status();
    auto rewritten = Timed(&l_.rewrite_ns, [&] {
      return plan::RewritePlan(std::move(*compiled), db);
    });
    if (!rewritten.ok()) return rewritten.status();
    const plan::PlanNode& root = **rewritten;
    // Bring the cached graphs up to date here, so that the patch or
    // rebuild is timed as the cache's; ExecutePlan's own Get then hits.
    std::vector<const HierarchicalRelation*> consulted;
    CacheConsulted(root, db, &consulted);
    for (const HierarchicalRelation* rel : consulted) {
      Timed(&l_.cache_get_ns, [&] {
        return &db.subsumption_cache().Get(*rel, ex_.options().threads);
      });
      ++l_.cache_gets;
    }
    plan::ExecOptions exec;
    exec.inference = ex_.options();
    exec.threads = ex_.options().threads;
    exec.cache = &db.subsumption_cache();
    plan::ExecStats stats;
    auto out = Timed(&l_.execute_ns,
                     [&] { return plan::ExecutePlan(root, db, exec, &stats); });
    l_.probes += stats.subsumption_probes;
    l_.rows_scanned += stats.rows_scanned;
    if (!out.ok()) return out.status();
    if (out->relation.has_value()) {
      l_.rows_out += out->relation->size();
    } else if (out->rollup.has_value()) {
      l_.rows_out += out->rollup->size();
    } else if (out->count.has_value()) {
      l_.rows_out += 1;
    }
    return Timed(&l_.render_ns, [&]() -> Result<std::string> {
      return Render(st, *out);
    });
  }

  /// The executor's rendering of a SELECT, COUNT or EXPLICATE result.
  Result<std::string> Render(const hirel::hql::Statement& st,
                             const hirel::plan::PlanOutput& out) {
    using namespace hirel;
    if (const auto* count = std::get_if<hql::CountStmt>(&st)) {
      if (!count->by_attribute) {
        return "count(" + count->relation + ") = " +
               std::to_string(*out.count) + "\n";
      }
      auto rel = std::as_const(ex_.database()).GetRelation(count->relation);
      if (!rel.ok()) return rel.status();
      auto attr = (*rel)->schema().IndexOf(count->attribute);
      if (!attr.ok()) return attr.status();
      return "count(" + count->relation + ") by " + count->attribute +
             ":\n" + RollUpToString(**rel, *attr, *out.rollup);
    }
    return FormatRelation(*out.relation);
  }

  Result<std::string> ExplainPlan(const hirel::hql::ExplainPlanStmt& stmt) {
    using namespace hirel;
    Database& db = ex_.database();
    auto compiled = Timed(&l_.compile_ns, [&] {
      return plan::CompileStatement(db, stmt.query->statement);
    });
    if (!compiled.ok()) return compiled.status();
    plan::RewriteStats stats;
    auto rewritten = Timed(&l_.rewrite_ns, [&] {
      return plan::RewritePlan(std::move(*compiled), db, {}, &stats);
    });
    if (!rewritten.ok()) return rewritten.status();
    return Timed(&l_.render_ns, [&] {
      return "plan for " + stmt.text + ":\n" +
             plan::ExplainPlanTree(**rewritten, &stats);
    });
  }

  Result<std::string> Routed(const hirel::hql::Statement& st) {
    using namespace hirel::hql;
    uint64_t* bucket = &l_.other_exec_ns;
    if (std::holds_alternative<CommitStmt>(st)) {
      bucket = &l_.commit_ns;
    } else if (std::holds_alternative<ConsolidateStmt>(st)) {
      bucket = &l_.consolidate_ns;
      ++l_.consolidates;
    } else if (std::holds_alternative<DeriveStmt>(st)) {
      bucket = &l_.derive_ns;
    } else if (std::holds_alternative<CreateHierarchyStmt>(st) ||
               std::holds_alternative<CreateClassStmt>(st) ||
               std::holds_alternative<CreateInstanceStmt>(st) ||
               std::holds_alternative<ConnectStmt>(st) ||
               std::holds_alternative<PreferStmt>(st) ||
               std::holds_alternative<EliminateStmt>(st)) {
      bucket = &l_.hierarchy_ns;
    }
    auto start = Clock::now();
    Result<std::string> out = ex_.ExecuteStatement(st);
    uint64_t ns = NsSince(start);
    *bucket += ns;
    // Every statement the streams route here is trace-worthy, so the
    // executor kept its pool chunk capture.
    CountChunks(ex_.last_pool_spans(), ns);
    if (std::holds_alternative<BeginStmt>(st) && out.ok()) in_txn_ = true;
    if (std::holds_alternative<CommitStmt>(st) ||
        std::holds_alternative<AbortStmt>(st)) {
      in_txn_ = false;
    }
    return out;
  }

  Executor& ex_;
  Layers& l_;
  bool in_txn_ = false;
};

// --------------------------------------------------------------------------
// Replays.

/// Set-up statements are probed once per this much of their time.
constexpr uint64_t kSetupSegmentNs = 4'000'000;

/// Runs the set-up script on a fresh executor; returns it. With a probe,
/// records the probe blocks around each set-up segment.
std::unique_ptr<Executor> Setup(const Workload& w, Replay& replay,
                                Layers* traced, HostProbe* probe = nullptr) {
  size_t last = probe ? probe->After(0) : 0;
  uint64_t total_ns = 0, segment_ns = 0;
  auto start = Clock::now();
  auto ex = std::make_unique<Executor>();
  std::optional<TracedRunner> runner;
  if (traced != nullptr) runner.emplace(*ex, *traced);
  for (size_t i = 0; i < w.setup.size(); ++i) {
    const Stmt& stmt = w.setup[i];
    replay.Check(stmt,
                 runner ? runner->Run(stmt.text) : ex->Execute(stmt.text));
    const uint64_t ns = NsSince(start);
    total_ns += ns;
    segment_ns += ns;
    if (probe && (segment_ns >= kSetupSegmentNs || i + 1 == w.setup.size())) {
      const size_t next = probe->After(segment_ns);
      replay.setup_probed.push_back({segment_ns, last, next});
      last = next;
      segment_ns = 0;
    }
    start = Clock::now();
  }
  replay.setup_s = static_cast<double>(total_ns) / 1e9;
  return ex;
}

void Stream(const Workload& w, Executor& ex, Replay& replay,
            Layers* traced, HostProbe* probe = nullptr) {
  std::optional<TracedRunner> runner;
  if (traced != nullptr) runner.emplace(ex, *traced);
  replay.latency_ns.reserve(w.stream.size());
  replay.digests.reserve(w.stream.size());
  size_t last = probe ? probe->After(0) : 0;
  for (const Stmt& stmt : w.stream) {
    auto start = Clock::now();
    Result<std::string> out =
        runner ? runner->Run(stmt.text) : ex.Execute(stmt.text);
    uint64_t ns = NsSince(start);
    if (probe) {
      const size_t next = probe->After(ns);
      replay.stream_probed.push_back({ns, last, next});
      last = next;
    }
    replay.stream_ns += ns;
    replay.latency_ns.push_back(ns);
    replay.digests.push_back(Digest(out));
    replay.Check(stmt, out);
  }
}

/// The final-count oracle: each relation's COUNT against the generator's
/// model, or against the explicated flat relation when there is no model.
void FinalCheck(const Workload& w, Executor& ex, Replay& replay) {
  for (const std::string& name : w.relations) {
    size_t expected = 0;
    auto model = w.final_counts.find(name);
    if (model != w.final_counts.end()) {
      expected = model->second;
    } else {
      auto rel = std::as_const(ex.database()).GetRelation(name);
      if (!rel.ok()) {
        replay.mismatches.push_back("oracle: " + rel.status().ToString());
        continue;
      }
      hirel::ExplicateOptions options;
      options.inference = ex.options();
      auto extension = hirel::Extension(**rel, options);
      if (!extension.ok()) {
        replay.mismatches.push_back("oracle: " +
                                    extension.status().ToString());
        continue;
      }
      auto flat = hirel::FlatRelation::FromRows(name, (*rel)->schema(),
                                                *extension);
      if (!flat.ok()) {
        replay.mismatches.push_back("oracle: " + flat.status().ToString());
        continue;
      }
      expected = flat->size();
    }
    Stmt stmt{"COUNT " + name + ";", StmtClass::kRead, "final",
              "count(" + name + ") = " + std::to_string(expected) + "\n"};
    replay.Check(stmt, ex.Execute(stmt.text));
  }
}

// --------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Latencies of one class, in stream order.
std::vector<uint64_t> ClassLatencies(const Workload& w, const Replay& r,
                                     StmtClass cls) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < w.stream.size(); ++i) {
    if (w.stream[i].cls == cls) out.push_back(r.latency_ns[i]);
  }
  return out;
}

/// The '#' report: per-class and per-kind sample counts and percentiles.
void PrintReport(const Workload& w, const Replay& r) {
  std::printf("# workload=%s statements=%zu threads=%zu setup_s=%.3f "
              "stream_s=%.3f attempted=%zu failed=%zu error_rate=%.6f\n",
              w.name.c_str(), w.stream.size(), w.threads, r.setup_s,
              static_cast<double>(r.stream_ns) / 1e9, r.attempted, r.failed,
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0);
  for (StmtClass cls : {StmtClass::kRead, StmtClass::kWrite,
                        StmtClass::kMaint, StmtClass::kOther}) {
    std::vector<uint64_t> ns = ClassLatencies(w, r, cls);
    if (ns.empty()) continue;
    size_t beyond_p90 = ns.size() - static_cast<size_t>(
                                        std::ceil(0.9 * ns.size()));
    std::printf("# class %-5s n=%-5zu p50_ms=%.4f p90_ms=%.4f (%zu beyond "
                "p90)\n",
                StmtClassName(cls), ns.size(), PercentileMs(ns, 0.5),
                PercentileMs(ns, 0.9), beyond_p90);
  }
  std::map<std::string, std::vector<uint64_t>> by_kind;
  for (size_t i = 0; i < w.stream.size(); ++i) {
    by_kind[w.stream[i].kind].push_back(r.latency_ns[i]);
  }
  for (const auto& [kind, ns] : by_kind) {
    uint64_t total = 0;
    for (uint64_t v : ns) total += v;
    std::printf("# kind %-14s n=%-5zu p50_ms=%.4f p90_ms=%.4f total_s=%.3f\n",
                kind.c_str(), ns.size(), PercentileMs(ns, 0.5),
                PercentileMs(ns, 0.9), static_cast<double>(total) / 1e9);
  }
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Median of `v` (the mean of the middle two for an even count).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Untraced runs set up this many times, each on a fresh executor, and
/// replay the stream after each set-up, so that the set-up and each
/// statement are timed this many times, seconds apart.
constexpr int kReplays = 3;

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload churn|reshape --seed N "
               "--seconds S --trace 0|1 [--scale full|toy]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Scale scale = Scale::kFull;
  // reshape runs at min(4, hardware threads).
  const size_t threads = std::min<size_t>(
      4, std::max<unsigned>(1, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--scale") {
      if (value != "full" && value != "toy") return Usage();
      scale = value == "toy" ? Scale::kToy : Scale::kFull;
    } else {
      return Usage();
    }
  }
  if (seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  Workload w;
  if (!MakeWorkload(workload, seed,
                    CyclesFor(workload, seconds / kReplays, scale),
                    scale, threads, &w)) {
    return Usage();
  }

  if (trace == 0) {
    // kReplays set-ups, each on a fresh executor and followed by one replay
    // of the stream, all timed with the host probe. setup_s is the median
    // corrected set-up, and a statement's latency the least of its
    // corrected timings: the host's slow spells are shorter than a replay
    // but longer than a statement, so the least discards those the probe
    // did not fully correct.
    HostProbe probe;
    std::vector<Replay> replays(kReplays);
    std::vector<double> setups, raw_setups;
    for (Replay& r : replays) {
      std::unique_ptr<Executor> ex = Setup(w, r, nullptr, &probe);
      Stream(w, *ex, r, nullptr, &probe);
      FinalCheck(w, *ex, r);
      double corrected = 0;
      for (const Probed& p : r.setup_probed) corrected += probe.Corrected(p);
      setups.push_back(corrected / 1e9);
      raw_setups.push_back(r.setup_s);
    }
    Replay run = replays[0];
    for (size_t i = 1; i < replays.size(); ++i) {
      const Replay& r = replays[i];
      run.attempted += r.attempted;
      run.failed += r.failed;
      for (const std::string& m : r.mismatches) run.mismatches.push_back(m);
      if (r.digests != run.digests) {
        run.mismatches.push_back("replay " + std::to_string(i) +
                                 " output differs from replay 0");
      }
    }
    for (size_t j = 0; j < run.latency_ns.size(); ++j) {
      double least = probe.Corrected(replays[0].stream_probed[j]);
      for (const Replay& r : replays) {
        least = std::min(least, probe.Corrected(r.stream_probed[j]));
      }
      run.latency_ns[j] = static_cast<uint64_t>(std::llround(least));
    }
    run.stream_ns = 0;
    for (uint64_t ns : run.latency_ns) run.stream_ns += ns;
    run.setup_s = Median(setups);
    PrintReport(w, run);
    std::printf("# host slowdown (mean over the run) %.3f; uncorrected "
                "stream_s:",
                probe.MeanSlowdown());
    for (const Replay& r : replays) {
      std::printf(" %.4f", static_cast<double>(r.stream_ns) / 1e9);
    }
    std::printf("; uncorrected setup_s:");
    for (double v : raw_setups) std::printf(" %.4f", v);
    std::printf("; corrected setup_s:");
    for (double v : setups) std::printf(" %.4f", v);
    std::printf("\n");
    for (const std::string& m : run.mismatches) {
      std::printf("# MISMATCH %s\n", m.c_str());
    }
    const std::optional<double> peak_rss_mb = PeakRssMb();
    if (!peak_rss_mb) std::printf("# MISMATCH no VmHWM in /proc/self/status\n");
    if (!run.mismatches.empty() || run.failed > 0 || !peak_rss_mb) {
      PrintResult(false, run.attempted, run.failed, {});
      return 1;
    }
    std::vector<uint64_t> reads = ClassLatencies(w, run, StmtClass::kRead);
    PrintResult(
        true, run.attempted, run.failed,
        {{"setup_s", run.setup_s, "s"},
         {"stmt_per_s",
          static_cast<double>(w.stream.size()) /
              (static_cast<double>(run.stream_ns) / 1e9),
          "1/s"},
         {"read_p50_ms", PercentileMs(reads, 0.5), "ms"},
         {"read_p90_ms", PercentileMs(reads, 0.9), "ms"},
         {"peak_rss_mb", *peak_rss_mb, "MiB"}});
    return 0;
  }

  // Traced: an untraced replay, then the traced one on a fresh database.
  Replay plain;
  {
    std::unique_ptr<Executor> ex = Setup(w, plain, nullptr);
    Stream(w, *ex, plain, nullptr);
    FinalCheck(w, *ex, plain);
  }
  Replay traced;
  Layers setup_layers, l;
  std::unique_ptr<Executor> ex = Setup(w, traced, &setup_layers);
  hirel::Database& db = ex->database();
  const hirel::SubsumptionCache::Stats cache0 =
      db.subsumption_cache().stats();
  const uint64_t delta0 =
      db.metrics().counter("consolidate.delta_runs").value();
  Stream(w, *ex, traced, &l);
  const hirel::SubsumptionCache::Stats cache1 =
      db.subsumption_cache().stats();
  const uint64_t delta_runs =
      db.metrics().counter("consolidate.delta_runs").value() - delta0;
  size_t bytes = 0, tuples = 0;
  for (const std::string& name : w.relations) {
    auto rel = std::as_const(db).GetRelation(name);
    if (rel.ok()) {
      bytes += (*rel)->ApproxBytes();
      tuples += (*rel)->size();
    }
  }
  FinalCheck(w, *ex, traced);
  ex.reset();

  PrintReport(w, plain);
  if (plain.digests != traced.digests) {
    size_t i = 0;
    while (i < plain.digests.size() && i < traced.digests.size() &&
           plain.digests[i] == traced.digests[i]) {
      ++i;
    }
    traced.mismatches.push_back(
        "traced output differs from untraced at stream statement " +
        std::to_string(i) +
        (i < w.stream.size() ? ": " + w.stream[i].text : std::string()));
  }
  for (const Replay* r : {&plain, &traced}) {
    for (const std::string& m : r->mismatches) {
      std::printf("# MISMATCH %s\n", m.c_str());
    }
  }
  const size_t attempted = plain.attempted + traced.attempted;
  const size_t failed = plain.failed + traced.failed;
  if (!plain.mismatches.empty() || !traced.mismatches.empty() || failed > 0) {
    PrintResult(false, attempted, failed, {});
    return 1;
  }

  // The ExecutePlan Get after each of the runner's own Gets is a hit that
  // an untraced replay does not make; take those out of the hit count.
  const double hits =
      static_cast<double>(cache1.hits - cache0.hits) -
      static_cast<double>(l.cache_gets);
  const double patches = static_cast<double>(cache1.patches - cache0.patches);
  const double rebuilds =
      static_cast<double>(cache1.rebuilds - cache0.rebuilds);
  const double lookups = hits + patches + rebuilds;
  std::vector<Metric> m = {
      {"core.integrity.ms", Ms(l.integrity_ns), "ms"},
      {"core.integrity.calls", static_cast<double>(l.integrity_calls),
       "count"},
      {"core.integrity.share", Share(l.integrity_ns, l.wall_ns), "ratio"},
      {"core.integrity.commit_ms", Ms(l.commit_ns), "ms"},
      {"core.cache.get_ms", Ms(l.cache_get_ns), "ms"},
      {"core.cache.hits", hits, "count"},
      {"core.cache.patches", patches, "count"},
      {"core.cache.rebuilds", rebuilds, "count"},
      {"core.cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio"},
      {"plan.compile_us", Us(l.compile_ns), "us"},
      {"plan.rewrite_us", Us(l.rewrite_ns), "us"},
      {"plan.execute_ms", Ms(l.execute_ns), "ms"},
      {"plan.execute.share", Share(l.execute_ns, l.wall_ns), "ratio"},
      {"plan.probes_per_row", Share(l.probes, l.rows_out), "ratio"},
      {"plan.scanned_per_row", Share(l.rows_scanned, l.rows_out), "ratio"},
      {"core.consolidate.ms", Ms(l.consolidate_ns), "ms"},
      {"core.consolidate.delta_runs", static_cast<double>(delta_runs),
       "count"},
      {"core.consolidate.full_runs",
       static_cast<double>(l.consolidates - delta_runs), "count"},
      {"rules.derive_ms", Ms(l.derive_ns), "ms"},
      {"hierarchy.edit_ms", Ms(l.hierarchy_ns), "ms"},
      {"pool.chunks", static_cast<double>(l.pool_chunks), "count"},
      {"pool.busy_ms", Ms(l.pool_busy_ns), "ms"},
      {"pool.parallelism", Share(l.pool_busy_ns, l.pool_wall_ns), "ratio"},
      {"hql.lex_us", Us(l.lex_ns), "us"},
      {"hql.parse_us", Us(l.parse_ns), "us"},
      {"hql.resolve_us", Us(l.resolve_ns), "us"},
      {"hql.render_us", Us(l.render_ns), "us"},
      {"hql.exec_other_ms", Ms(l.other_exec_ns), "ms"},
      {"core.store.bytes_per_tuple", Share(bytes, tuples), "B"},
      {"setup.commit_ms", Ms(setup_layers.commit_ns), "ms"},
      {"setup.plan_ms",
       Ms(setup_layers.cache_get_ns + setup_layers.execute_ns), "ms"},
      {"setup.hierarchy_ms", Ms(setup_layers.hierarchy_ns), "ms"},
      {"trace.attributed_share", Share(l.attributed_ns(), l.wall_ns),
       "ratio"},
      {"trace.overhead_ratio", Share(traced.stream_ns, plain.stream_ns),
       "ratio"},
  };
  std::printf("# traced stream wall_ms=%.3f attributed_ms=%.3f\n",
              Ms(l.wall_ns), Ms(l.attributed_ns()));
  PrintResult(true, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) { return bench_e2e::Main(argc, argv); }
