// Differential oracle for the delta ambiguity check (integrity.h).
//
// Guarded inserts, erases and transaction commits check only the changed
// items' cones when the pre-state is verified, and fall back to the full
// CheckAmbiguity otherwise. These tests replay seeded random streams over
// DAG hierarchies and require, after every step, that the guarded verdict
// equals the full check's verdict on a copy of the pre-state with the same
// mutations applied unchecked, that an accepted post-state passes the full
// check, and that a rejected step leaves the tuples unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/str_util.h"
#include "core/conflict.h"
#include "core/consolidate.h"
#include "core/integrity.h"
#include "core/transaction.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using Contents = std::vector<std::pair<Item, Truth>>;

Contents ContentsOf(const HierarchicalRelation& relation) {
  Contents out;
  for (TupleId id : relation.TupleIds()) {
    out.emplace_back(relation.ItemAt(id), relation.TruthOf(id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One mutation of a step, replayed unchecked by the oracle.
struct Op {
  bool erase = false;
  Item item;
  Truth truth = Truth::kPositive;
};

/// The full check's verdict: `ops` applied unchecked, in order, to a copy
/// of `pre`, then CheckAmbiguity. A failing op is the verdict, as it is
/// for GuardedInsert/GuardedErase and Transaction::Commit.
StatusCode OracleVerdict(const HierarchicalRelation& pre,
                         const std::vector<Op>& ops,
                         const InferenceOptions& options) {
  HierarchicalRelation copy = pre;
  for (const Op& op : ops) {
    Status applied = op.erase ? copy.EraseItem(op.item)
                              : copy.Insert(op.item, op.truth).status();
    if (!applied.ok()) return applied.code();
  }
  return CheckAmbiguity(copy, options).code();
}

class DeltaStream {
 public:
  DeltaStream(uint64_t seed, size_t attributes)
      : rng_(seed * 7919 + attributes),
        rdb_(seed, [&] {
          testing::RandomFixtureOptions o;
          o.num_classes = 8;
          o.num_instances = 12;
          o.extra_parent_p = 0.3;
          o.num_attributes = attributes;
          o.num_tuples = 10;
          return o;
        }()),
        relation_(rdb_.relation()) {}

  /// Runs `steps` random steps, checking each against the oracle.
  void Run(size_t steps) {
    for (size_t step = 0; step < steps; ++step) {
      SCOPED_TRACE(StrCat("step ", step, " mode ",
                          PreemptionModeToString(options_.preemption)));
      MaybeRepair();
      uint64_t pick = rng_.Uniform(100);
      if (pick < 18) {
        Guarded({Op{false, RandomItem(), RandomTruth()}});
      } else if (pick < 30) {
        Guarded({RandomException()});
      } else if (pick < 48) {
        Guarded({Op{true, RandomVictim(), Truth::kPositive}});
      } else if (pick < 60) {
        Batch(RandomBatch());
      } else if (pick < 72) {
        Batch(ConflictThenResolve());
      } else if (pick < 80) {
        EditHierarchy();
      } else if (pick < 82) {
        // Preference edges rule out the off-path delta for good, so they
        // only arrive in the last quarter of the stream.
        if (4 * step >= 3 * steps) AddPreference();
      } else if (pick < 88) {
        (void)ConsolidateInPlace(*relation_, options_);
      } else {
        options_.preemption = static_cast<PreemptionMode>(rng_.Uniform(3));
      }
      if (::testing::Test::HasFailure()) return;
    }
  }

  size_t delta_steps() const { return delta_steps_; }
  size_t accepted() const { return accepted_; }
  size_t rejected_conflicts() const { return rejected_conflicts_; }
  size_t accepted_batches() const { return accepted_batches_; }

 private:
  Item RandomItem() {
    const Schema& schema = relation_->schema();
    Item item(schema.size());
    for (size_t i = 0; i < schema.size(); ++i) {
      std::vector<NodeId> nodes = schema.hierarchy(i)->Nodes();
      item[i] = nodes[rng_.Index(nodes.size())];
    }
    return item;
  }

  Truth RandomTruth() {
    return rng_.Bernoulli(0.4) ? Truth::kNegative : Truth::kPositive;
  }

  /// A live tuple's item, or now and then an arbitrary (maybe absent) one.
  /// Half the time the tuple is an exception (another tuple subsumes it):
  /// erasing one re-exposes the tuples it preempted below it.
  Item RandomVictim() {
    std::vector<TupleId> ids = relation_->TupleIds();
    if (ids.empty() || rng_.Bernoulli(0.1)) return RandomItem();
    if (rng_.Bernoulli(0.5)) {
      std::vector<TupleId> exceptions;
      for (TupleId id : ids) {
        if (relation_->TuplesSubsuming(relation_->ItemAt(id)).size() > 1) {
          exceptions.push_back(id);
        }
      }
      if (!exceptions.empty()) ids = std::move(exceptions);
    }
    return relation_->ItemAt(ids[rng_.Index(ids.size())]);
  }

  /// An insert below a live tuple with the opposite truth: an exception,
  /// which later erases may remove again.
  Op RandomException() {
    std::vector<TupleId> ids = relation_->TupleIds();
    if (ids.empty()) return Op{false, RandomItem(), RandomTruth()};
    TupleId above = ids[rng_.Index(ids.size())];
    const Schema& schema = relation_->schema();
    Item item(schema.size());
    for (size_t i = 0; i < schema.size(); ++i) {
      const Dag& dag = schema.hierarchy(i)->dag();
      std::vector<NodeId> below =
          dag.Descendants(relation_->Component(above, i));
      item[i] = below[rng_.Index(below.size())];
    }
    return Op{false, std::move(item), Negate(relation_->TruthOf(above))};
  }

  std::vector<Op> RandomBatch() {
    std::vector<Op> ops;
    size_t n = 2 + rng_.Index(4);
    for (size_t i = 0; i < n; ++i) {
      if (rng_.Bernoulli(0.35)) {
        ops.push_back(Op{true, RandomVictim(), Truth::kPositive});
      } else {
        ops.push_back(Op{false, RandomItem(), RandomTruth()});
      }
    }
    return ops;
  }

  /// A batch whose first insert conflicts with a live tuple and whose
  /// remaining inserts assert the minimal resolution set, so the conflict
  /// is created and resolved inside the batch.
  std::vector<Op> ConflictThenResolve() {
    const Schema& schema = relation_->schema();
    std::vector<TupleId> ids = relation_->TupleIds();
    for (int attempt = 0; attempt < 20 && !ids.empty(); ++attempt) {
      TupleId other = ids[rng_.Index(ids.size())];
      const Item target = relation_->ItemAt(other);
      Item item = RandomItem();
      if (ItemComparable(schema, item, target)) continue;
      std::vector<Item> resolution =
          MinimalConflictResolutionSet(schema, item, target);
      if (resolution.empty()) continue;
      Truth truth = Negate(relation_->TruthOf(other));
      std::vector<Op> ops{Op{false, item, truth}};
      for (Item& site : resolution) {
        if (relation_->FindItem(site).has_value()) continue;
        ops.push_back(Op{false, std::move(site), truth});
      }
      return ops;
    }
    return RandomBatch();
  }

  void EditHierarchy() {
    size_t attr = rng_.Index(relation_->schema().size());
    Hierarchy* h = relation_->schema().hierarchy(attr);
    std::vector<NodeId> classes = h->Classes();
    NodeId parent = classes[rng_.Index(classes.size())];
    switch (rng_.Uniform(3)) {
      case 0:
        (void)h->AddClass(StrCat("x", attr, "_", edits_++), parent);
        break;
      case 1:
        (void)h->AddInstance(Value::String(StrCat("y", attr, "_", edits_++)),
                             parent);
        break;
      default: {
        // A second parent: may make disjoint tuples overlap and so expose
        // a conflict the next guarded step must find by the full check.
        std::vector<NodeId> nodes = h->Nodes();
        (void)h->AddEdge(parent, nodes[rng_.Index(nodes.size())]);
        break;
      }
    }
  }

  void AddPreference() {
    size_t attr = rng_.Index(relation_->schema().size());
    Hierarchy* h = relation_->schema().hierarchy(attr);
    std::vector<NodeId> classes = h->Classes();
    (void)h->AddPreferenceEdge(classes[rng_.Index(classes.size())],
                               classes[rng_.Index(classes.size())]);
  }

  /// Now and then drops tuples (unchecked) until the relation is
  /// consistent again, so a stream is not stuck behind a conflict that a
  /// hierarchy edit or mode switch exposed. Otherwise the conflict stays
  /// and the next guarded steps must reject it as the full check does.
  void MaybeRepair() {
    if (!rng_.Bernoulli(0.3)) return;
    while (!relation_->empty() && !CheckAmbiguity(*relation_, options_).ok()) {
      ASSERT_TRUE(relation_->Erase(relation_->TupleIds().back()).ok());
    }
  }

  /// A single GuardedInsert or GuardedErase.
  void Guarded(const std::vector<Op>& ops) {
    const Op& op = ops.front();
    Check(ops, [&] {
      return op.erase ? GuardedErase(*relation_, op.item, options_)
                      : GuardedInsert(*relation_, op.item, op.truth, options_)
                            .status();
    });
  }

  void Batch(const std::vector<Op>& ops) {
    Check(ops, [&] {
      Transaction txn(relation_, options_);
      for (const Op& op : ops) {
        if (op.erase) {
          txn.Erase(op.item);
        } else {
          txn.Insert(op.item, op.truth);
        }
      }
      Status committed = txn.Commit();
      if (committed.ok() && ops.size() > 1) ++accepted_batches_;
      return committed;
    });
  }

  /// From a verified state, every single-tuple erase (on a copy) must get
  /// the same verdict from the delta as from the full check: a denser
  /// probe of the off-path erase rules than the stream's own steps. (The
  /// on-path and none cones are plain downsets; the steps cover them.)
  void CheckEveryErase() {
    if (options_.preemption != PreemptionMode::kOffPath) return;
    for (TupleId id : relation_->TupleIds()) {
      HierarchicalRelation copy = *relation_;
      const Item item = copy.ItemAt(id);
      ASSERT_TRUE(copy.Erase(id).ok());
      ASSERT_EQ(CheckAmbiguityDelta(copy, {item}, options_).code(),
                CheckAmbiguity(copy, options_).code())
          << "erase of " << ItemToString(copy.schema(), item);
    }
  }

  template <typename Apply>
  void Check(const std::vector<Op>& ops, Apply apply) {
    const StatusCode expected = OracleVerdict(*relation_, ops, options_);
    const Contents before = ContentsOf(*relation_);
    if (DeltaCheckApplies(*relation_, options_)) {
      ++delta_steps_;
      CheckEveryErase();
      if (::testing::Test::HasFailure()) return;
    }
    Status got = apply();
    ASSERT_EQ(got.code(), expected) << got.ToString();
    if (got.ok()) {
      ++accepted_;
      ASSERT_TRUE(CheckAmbiguity(*relation_, options_).ok());
      // The accepted state is stamped: the next step may run the delta
      // unless off-path preference edges rule it out.
      bool preference = false;
      const Schema& schema = relation_->schema();
      for (size_t i = 0; i < schema.size(); ++i) {
        preference |= schema.hierarchy(i)->num_preference_edges() > 0;
      }
      ASSERT_EQ(DeltaCheckApplies(*relation_, options_),
                !preference ||
                    options_.preemption != PreemptionMode::kOffPath);
    } else {
      if (got.IsConflict()) ++rejected_conflicts_;
      ASSERT_EQ(ContentsOf(*relation_), before);
    }
  }

  Random rng_;
  testing::RandomDatabase rdb_;
  HierarchicalRelation* relation_;
  InferenceOptions options_;
  size_t edits_ = 0;
  size_t delta_steps_ = 0;
  size_t accepted_ = 0;
  size_t rejected_conflicts_ = 0;
  size_t accepted_batches_ = 0;
};

class IntegrityDeltaStream : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntegrityDeltaStream, VerdictsMatchFullCheck) {
  const uint64_t seed = GetParam();
  const size_t attributes = 1 + seed % 3;
  DeltaStream stream(seed, attributes);
  stream.Run(/*steps=*/160);
  if (HasFailure()) return;
  // The stream must exercise both verdicts, conflict-resolving batches,
  // and the delta on a good share of its steps.
  EXPECT_GE(stream.delta_steps(), 30u);
  EXPECT_GE(stream.accepted(), 40u);
  EXPECT_GT(stream.rejected_conflicts(), 0u);
  EXPECT_GT(stream.accepted_batches(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrityDeltaStream,
                         ::testing::Range<uint64_t>(1, 13));

TEST(IntegrityDeltaTest, EmptyRelationStartsVerified) {
  testing::RespectsFixture f;
  HierarchicalRelation fresh("fresh", f.respects->schema());
  EXPECT_TRUE(DeltaCheckApplies(fresh, {}));
  ASSERT_TRUE(fresh.Insert({f.obsequious, f.teacher->root()},
                           Truth::kPositive)
                  .ok());
  // An unchecked insert leaves the state unverified...
  EXPECT_FALSE(DeltaCheckApplies(fresh, {}));
  // ...until a guarded write passes the full check and stamps it.
  ASSERT_TRUE(GuardedInsert(fresh, {f.john, f.wendy}, Truth::kPositive).ok());
  EXPECT_TRUE(DeltaCheckApplies(fresh, {}));
  InferenceOptions none;
  none.preemption = PreemptionMode::kNone;
  EXPECT_FALSE(DeltaCheckApplies(fresh, none));
}

TEST(IntegrityDeltaTest, RejectedOpRestampsAndNextOpRunsDelta) {
  testing::RespectsFixture f(/*with_resolver=*/false);
  HierarchicalRelation& r = *f.respects;
  ASSERT_TRUE(r.EraseItem({f.student->root(), f.incoherent}).ok());
  ASSERT_TRUE(GuardedInsert(r, {f.mary, f.wendy}, Truth::kPositive).ok());
  ASSERT_TRUE(DeltaCheckApplies(r, {}));
  // The Fig. 3 DENY: rejected by the delta, rolled back, re-stamped.
  Result<TupleId> denied =
      GuardedInsert(r, {f.student->root(), f.incoherent}, Truth::kNegative);
  ASSERT_TRUE(denied.status().IsConflict());
  EXPECT_TRUE(DeltaCheckApplies(r, {}));
  // Resolver first, then the DENY: both accepted by the delta.
  ASSERT_TRUE(
      GuardedInsert(r, {f.obsequious, f.incoherent}, Truth::kPositive).ok());
  ASSERT_TRUE(
      GuardedInsert(r, {f.student->root(), f.incoherent}, Truth::kNegative)
          .ok());
  EXPECT_TRUE(DeltaCheckApplies(r, {}));
  EXPECT_TRUE(CheckAmbiguity(r).ok());
  // Removing the resolver re-exposes the conflict.
  EXPECT_TRUE(GuardedErase(r, {f.obsequious, f.incoherent}).IsConflict());
  EXPECT_TRUE(DeltaCheckApplies(r, {}));
  EXPECT_EQ(r.size(), 4u);
}

TEST(IntegrityDeltaTest, DmlAfterHierarchyDdlFallsBackToFullCheck) {
  Database db;
  Hierarchy* h = db.CreateHierarchy("animal").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId c = h->AddClass("c").value();
  NodeId x = h->AddInstance(Value::String("x"), a).value();
  HierarchicalRelation* r = db.CreateRelation("r", {{"who", "animal"}}).value();
  ASSERT_TRUE(GuardedInsert(*r, {a}, Truth::kPositive).ok());
  ASSERT_TRUE(GuardedInsert(*r, {b}, Truth::kNegative).ok());
  ASSERT_TRUE(DeltaCheckApplies(*r, {}));
  // x becomes a member of both a and b: the existing tuples now conflict
  // at x, and the edit leaves the stamp stale.
  ASSERT_TRUE(h->AddEdge(b, x).ok());
  EXPECT_FALSE(DeltaCheckApplies(*r, {}));
  // A write far from x must still be rejected: the full check finds the
  // pre-existing conflict, exactly as without the delta.
  Status s = GuardedInsert(*r, {c}, Truth::kPositive).status();
  ASSERT_TRUE(s.IsConflict()) << s.ToString();
  EXPECT_NE(s.message().find("(x)"), std::string::npos) << s.ToString();
  EXPECT_EQ(r->size(), 2u);
  // Resolving at x passes the full check and stamps the relation again.
  ASSERT_TRUE(GuardedInsert(*r, {x}, Truth::kPositive).ok());
  EXPECT_TRUE(DeltaCheckApplies(*r, {}));
}

TEST(IntegrityDeltaTest, PreferenceEdgesDisableOnlyTheOffPathDelta) {
  Database db;
  Hierarchy* h = db.CreateHierarchy("h").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId x = h->AddInstance(Value::String("x"), a).value();
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "h"}}).value();
  ASSERT_TRUE(GuardedInsert(*r, {a}, Truth::kPositive).ok());
  ASSERT_TRUE(GuardedInsert(*r, {b}, Truth::kNegative).ok());
  ASSERT_TRUE(DeltaCheckApplies(*r, {}));
  ASSERT_TRUE(h->AddPreferenceEdge(b, a).ok());
  ASSERT_TRUE(GuardedInsert(*r, {x}, Truth::kPositive).ok());
  // Off-path binding order now includes the preference edge, outside the
  // delta's completeness argument: every write takes the full check.
  EXPECT_FALSE(DeltaCheckApplies(*r, {}));
  // On-path and none never consult preference edges.
  InferenceOptions on_path;
  on_path.preemption = PreemptionMode::kOnPath;
  EXPECT_FALSE(DeltaCheckApplies(*r, on_path));  // stamped for off-path
  ASSERT_TRUE(GuardedErase(*r, {x}, on_path).ok());
  EXPECT_TRUE(DeltaCheckApplies(*r, on_path));
}

TEST(IntegrityDeltaTest, EraseExposesConflictBelowTheErasedItem) {
  // root -> {a, b}, a -> a1, and m under both a1 and b. With +a, -a1, -b
  // the site m is bound by a1 and b, both negative. Erasing a1 makes +a
  // and -b the binders of m; a1 itself stays unconflicted (bound by +a
  // alone), so only the MCD of a1 with the overlapping -b finds it.
  Database db;
  Hierarchy* h = db.CreateHierarchy("h").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId a1 = h->AddClass("a1", a).value();
  NodeId m = h->AddInstance(Value::String("m"), a1).value();
  ASSERT_TRUE(h->AddEdge(b, m).ok());
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "h"}}).value();
  ASSERT_TRUE(GuardedInsert(*r, {a}, Truth::kPositive).ok());
  ASSERT_TRUE(GuardedInsert(*r, {a1}, Truth::kNegative).ok());
  ASSERT_TRUE(GuardedInsert(*r, {b}, Truth::kNegative).ok());
  ASSERT_TRUE(DeltaCheckApplies(*r, {}));
  Status s = GuardedErase(*r, {a1});
  ASSERT_TRUE(s.IsConflict()) << s.ToString();
  EXPECT_NE(s.message().find("(m)"), std::string::npos) << s.ToString();
  EXPECT_EQ(r->size(), 3u);
}

TEST(IntegrityDeltaTest, CommitResolvingInsideTheBatchRunsDelta) {
  testing::RespectsFixture f(/*with_resolver=*/false);
  HierarchicalRelation& r = *f.respects;
  ASSERT_TRUE(r.EraseItem({f.student->root(), f.incoherent}).ok());
  ASSERT_TRUE(GuardedInsert(r, {f.mary, f.wendy}, Truth::kPositive).ok());
  ASSERT_TRUE(DeltaCheckApplies(r, {}));
  Transaction txn(&r);
  txn.Deny({f.student->root(), f.incoherent});
  uint64_t probes = 0;
  ASSERT_TRUE(txn.Commit(&probes).IsConflict());
  EXPECT_GT(probes, 0u);
  EXPECT_TRUE(DeltaCheckApplies(r, {}));
  txn.Deny({f.student->root(), f.incoherent});
  txn.Assert({f.obsequious, f.incoherent});
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(DeltaCheckApplies(r, {}));
  EXPECT_TRUE(CheckAmbiguity(r).ok());
}

TEST(IntegrityDeltaTest, OverlappingTuplesComeFromSharedDescendants) {
  Database db;
  Hierarchy* h = db.CreateHierarchy("h").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId c = h->AddClass("c").value();
  NodeId x = h->AddInstance(Value::String("x"), a).value();
  ASSERT_TRUE(h->AddEdge(b, x).ok());
  std::vector<NodeId> overlapping = h->dag().Overlapping(a);
  std::sort(overlapping.begin(), overlapping.end());
  std::vector<NodeId> expected{h->root(), a, b, x};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(overlapping, expected);

  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "h"}}).value();
  TupleId ta = r->Insert({a}, Truth::kPositive).value();
  TupleId tb = r->Insert({b}, Truth::kNegative).value();
  (void)r->Insert({c}, Truth::kNegative).value();
  TupleId tx = r->Insert({x}, Truth::kPositive).value();
  EXPECT_EQ(r->TuplesOverlapping({a}), (std::vector<TupleId>{ta, tb, tx}));
}

}  // namespace
}  // namespace hirel
