// Seeded HQL statement streams for the end-to-end benchmark.
//
// A workload is a set-up script and a fixed-length stream of statements,
// both a pure function of (workload, seed, stream length, scale). The
// generator keeps its own model of every relation it writes, so it knows
// the answer each COUNT in the stream must give and the final cardinality
// of each relation; facts on classes are drawn without replacement and the
// model stays valid through CONSOLIDATE, so no statement fails by
// construction.

#ifndef HIREL_BENCH_E2E_WORKLOAD_H_
#define HIREL_BENCH_E2E_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench_e2e {

/// Latency class of a statement. kWrite is ASSERT / DENY / RETRACT outside
/// a transaction; kMaint is COMMIT, CONSOLIDATE and DERIVE; kRead is every
/// query (SELECT, COUNT, EXPLAIN PLAN, EXPLICATE, ...); kOther is the rest
/// (hierarchy DDL, BEGIN, facts staged inside a transaction).
enum class StmtClass { kRead, kWrite, kMaint, kOther };

const char* StmtClassName(StmtClass cls);

struct Stmt {
  std::string text;
  StmtClass cls = StmtClass::kOther;
  /// Short tag of the statement's shape ("select.leaf", "assert", ...),
  /// for the per-kind latency table.
  std::string kind;
  /// The exact output the statement must produce, when the model knows it
  /// (the COUNT statements); empty otherwise.
  std::string expect;
};

enum class Scale { kFull, kToy };

struct Workload {
  std::string name;
  /// SET THREADS value the set-up script applies.
  size_t threads = 1;
  std::vector<Stmt> setup;
  std::vector<Stmt> stream;
  /// Relations whose final COUNT is checked after the stream.
  std::vector<std::string> relations;
  /// Model cardinality of each relation after the stream. Empty when the
  /// oracle is the explicated flat relation instead (reshape).
  std::map<std::string, size_t> final_counts;
};

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for `seed`. The stream has `cycles` repetitions
/// of the workload's statement cycle. `threads` is used only by reshape.
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, size_t cycles,
                  Scale scale, size_t threads, Workload* out);

/// Stream cycles for a run of `seconds` seconds: a fixed per-workload rate
/// times the run length, so both sides of a comparison replay the same
/// statements and latency sample counts match.
size_t CyclesFor(const std::string& name, double seconds, Scale scale);

}  // namespace bench_e2e

#endif  // HIREL_BENCH_E2E_WORKLOAD_H_
