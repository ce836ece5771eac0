// Datalog-style rules over hierarchical relations.
//
// Section 2.1 distinguishes the taxonomy (the hierarchy) from association
// (the relations), and notes that the lost semantic-net inference — "Tweety
// can travel far since flying things can travel far" — is recovered "through
// the use of logic programming, such as PROLOG or DATALOG, on top of our
// hierarchical data model", yielding "an even more powerful inference
// mechanism with no loss of succinctness". This module supplies that layer:
//
//   travels_far(?x) :- flies(?x).
//   respected_flyer(?x) :- flies(?x), respects(?s, ?x).
//   grounded(?x)    :- bird(?x), not flies(?x).
//
// Body atoms are evaluated over relation *extensions* (hierarchical
// inference resolves all exceptions first), so a rule body sees exactly
// the closed-world facts. A class constant in a positive body atom is a
// membership constraint ("?x is a penguin"); head constants may be classes,
// so rules can derive class-level facts. Negation is negation-as-failure
// with stratification (a program whose negations cycle is rejected).

#ifndef HIREL_RULES_RULE_H_
#define HIREL_RULES_RULE_H_

#include <string>
#include <string_view>
#include <vector>

#include "catalog/database.h"
#include "common/result.h"
#include "core/binding.h"
#include "core/subsumption_cache.h"
#include "obs/trace.h"

namespace hirel {

/// One argument of a rule atom: a variable or a resolved hierarchy node.
struct RuleArg {
  enum class Kind { kVariable, kNode };
  Kind kind = Kind::kVariable;
  std::string variable;      // for kVariable (without the leading '?')
  NodeId node = kInvalidNode;  // for kNode

  static RuleArg Var(std::string name) {
    return RuleArg{Kind::kVariable, std::move(name), kInvalidNode};
  }
  static RuleArg Node(NodeId node) {
    return RuleArg{Kind::kNode, "", node};
  }
};

/// One literal: a (possibly negated) relation atom.
struct RuleAtom {
  std::string relation;
  std::vector<RuleArg> args;
  bool negated = false;
};

/// head :- body. An empty body makes the rule an unconditional fact.
struct Rule {
  RuleAtom head;
  std::vector<RuleAtom> body;

  /// "travels_far(?x) :- flies(?x)."-style rendering.
  std::string ToString(const Database& db) const;
};

/// Evaluation limits.
struct RuleOptions {
  InferenceOptions inference;
  /// Cap on derived facts across all head relations (kResourceExhausted).
  size_t max_derived_facts = 1'000'000;
  /// Cap on fixpoint rounds per stratum.
  size_t max_rounds = 10'000;
  /// Subsumption-graph cache (normally the Database's). Every fixpoint
  /// round re-explicates each referenced relation; with the cache, rounds
  /// that did not change a relation skip rebuilding its graph. Null
  /// disables caching.
  SubsumptionCache* subsumption_cache = nullptr;

  /// When non-null, Evaluate records one child span per fixpoint round
  /// ("derive round N" with stratum/derived notes) under the innermost
  /// open span. Null leaves evaluation untraced.
  obs::Trace* trace = nullptr;

  /// Incremental extension bookkeeping between fixpoint rounds: a head
  /// relation whose version stamp is unchanged since its last refresh is
  /// not re-scanned at all, and one holding only positive atomic tuples
  /// (the shape derived relations converge to) has its extension extended
  /// by the journalled inserts instead of a full rescan. Results are
  /// byte-identical either way — rows, deltas, and probe totals. Only
  /// tests clear this, to run the naive DERIVE as a reference.
  bool incremental = true;
};

/// A set of rules bound to a database, evaluated bottom-up to fixpoint.
class RuleEngine {
 public:
  explicit RuleEngine(Database* db) : db_(db) {}

  /// Parses "head(args) :- lit, lit, ... ." (the trailing '.' optional).
  /// Variables are ?name; constants are resolved against the attribute's
  /// hierarchy (bare name, 'quoted string', integer, or float).
  Result<Rule> ParseRule(std::string_view text) const;

  /// Validates and adds a rule:
  ///  * head relation exists and arities match;
  ///  * safety: every head variable and every negated-atom variable occurs
  ///    in some positive body atom;
  ///  * class constants are not allowed in negated atoms.
  Status AddRule(Rule rule);

  /// Convenience: ParseRule + AddRule.
  Status AddRule(std::string_view text);

  const std::vector<Rule>& rules() const { return rules_; }

  /// Evaluates the program: stratifies, then computes each stratum to
  /// fixpoint, inserting derived facts as positive atomic tuples into the
  /// head relations. Returns the number of facts derived. Fails with
  /// kInvalidArgument on non-stratifiable programs.
  Result<size_t> Evaluate(const RuleOptions& options = {});

 private:
  Database* db_;
  std::vector<Rule> rules_;
};

}  // namespace hirel

#endif  // HIREL_RULES_RULE_H_
