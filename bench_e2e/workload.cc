#include "workload.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <tuple>
#include <utility>

namespace bench_e2e {

namespace {

using Rng = std::mt19937_64;

/// Uniform pick in [0, n); callers guarantee n > 0.
size_t Pick(Rng& rng, size_t n) { return static_cast<size_t>(rng() % n); }

template <typename T>
void Shuffle(Rng& rng, std::vector<T>& v) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Pick(rng, i)]);
}

/// Removes and returns a random element (order is not preserved).
size_t TakeRandom(Rng& rng, std::vector<size_t>& v) {
  size_t i = Pick(rng, v.size());
  size_t out = v[i];
  v[i] = v.back();
  v.pop_back();
  return out;
}

std::string Sku(size_t i) { return "sku" + std::to_string(i); }

std::string CountText(const std::string& relation, size_t n) {
  return "count(" + relation + ") = " + std::to_string(n) + "\n";
}

void Add(std::vector<Stmt>& out, std::string text, StmtClass cls,
         std::string kind, std::string expect = {}) {
  out.push_back(Stmt{std::move(text), cls, std::move(kind), std::move(expect)});
}

void AddSetup(Workload& w, std::string text) {
  Add(w.setup, std::move(text), StmtClass::kOther, "setup");
}

/// A product taxonomy shaped as a class tree: `levels[d]` holds the
/// classes at depth d + 1, in level order; the last level are the leaves.
struct Tree {
  std::vector<std::vector<std::string>> levels;
  std::vector<std::string> all;
  const std::vector<std::string>& leaves() const { return levels.back(); }
};

Tree EmitTree(Workload& w, size_t depth, size_t fanout) {
  Tree tree;
  std::vector<std::string> parents = {""};
  size_t next = 0;
  for (size_t level = 0; level < depth; ++level) {
    std::vector<std::string> created;
    for (const std::string& parent : parents) {
      for (size_t c = 0; c < fanout; ++c) {
        std::string name = "cat" + std::to_string(next++);
        AddSetup(w, "CREATE CLASS " + name + " IN product" +
                        (parent.empty() ? "" : " UNDER " + parent) + ";");
        created.push_back(name);
        tree.all.push_back(name);
      }
    }
    tree.levels.push_back(created);
    parents = std::move(created);
  }
  return tree;
}

/// Tree-shaped `stock(item: product)`: `live` skus asserted, `spare` more
/// sku instances created without a fact, and class-level DENYs on classes
/// drawn without replacement, all loaded by one BEGIN ... COMMIT. Returns
/// the tree; `live_out` / `dead_out` receive the sku indexes.
Tree EmitTreeSetup(Workload& w, Rng& rng, size_t live, size_t spare,
                   std::vector<size_t>* live_out,
                   std::vector<size_t>* dead_out) {
  AddSetup(w, "SET THREADS " + std::to_string(w.threads) + ";");
  AddSetup(w, "CREATE HIERARCHY product;");
  Tree tree = EmitTree(w, /*depth=*/3, /*fanout=*/8);
  const std::vector<std::string>& leaves = tree.leaves();
  for (size_t i = 0; i < live + spare; ++i) {
    AddSetup(w, "CREATE INSTANCE " + Sku(i) + " IN product UNDER " +
                    leaves[Pick(rng, leaves.size())] + ";");
    (i < live ? live_out : dead_out)->push_back(i);
  }
  AddSetup(w, "CREATE RELATION stock (item: product);");
  AddSetup(w, "BEGIN stock;");
  // Denied classes: drawn without replacement, so no DENY is repeated,
  // and in the same number from every level (one in 24 of each level,
  // at least one), so every seed denies subtrees of the same sizes.
  for (const std::vector<std::string>& level : tree.levels) {
    std::vector<size_t> order(level.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Shuffle(rng, order);
    for (size_t i = 0; i < std::max<size_t>(1, level.size() / 24); ++i) {
      AddSetup(w, "DENY stock(ALL " + level[order[i]] + ");");
    }
  }
  // Only sku facts are positive, so a sku fact is never redundant (no
  // positive predecessor): CONSOLIDATE never removes one behind the
  // model's back, and the extension is exactly the live skus.
  for (size_t i : *live_out) AddSetup(w, "ASSERT stock(" + Sku(i) + ");");
  AddSetup(w, "COMMIT;");
  // The first COUNT builds the subsumption graph (cold).
  Add(w.setup, "COUNT stock;", StmtClass::kOther, "setup",
      CountText("stock", live_out->size()));
  w.relations = {"stock"};
  return tree;
}

// --------------------------------------------------------------------------
// churn: single-tuple writes against ~10^3 tuples, each paying the guarded
// update's ambiguity check, with light reads and delta consolidation.

void MakeChurn(Workload& w, Rng& rng, size_t cycles, Scale scale) {
  const size_t live_n = scale == Scale::kToy ? 60 : 1000;
  std::vector<size_t> live, dead;
  Tree tree = EmitTreeSetup(w, rng, live_n, live_n / 2, &live, &dead);
  const std::vector<std::string>& leaves = tree.leaves();

  // Each write is followed by one read. Four reads in five are COUNTs,
  // which find the cached graph one write behind and patch it, so both
  // read percentiles fall inside the COUNT block (the SELECTs, cheaper,
  // fill the lowest fifth).
  enum Op { kAssertNew, kRetract, kFlip, kSelectLeaf, kCount };
  const std::vector<Op> cycle_writes = {kAssertNew, kAssertNew, kRetract,
                                        kRetract, kFlip};
  const std::vector<Op> cycle_reads = {kCount, kCount, kCount, kCount,
                                       kSelectLeaf};
  for (size_t c = 0; c < cycles; ++c) {
    std::vector<Op> writes = cycle_writes, reads = cycle_reads;
    Shuffle(rng, writes);
    Shuffle(rng, reads);
    std::vector<Op> ops;
    for (size_t i = 0; i < writes.size(); ++i) {
      ops.push_back(writes[i]);
      ops.push_back(reads[i]);
    }
    for (Op op : ops) {
      switch (op) {
        case kAssertNew: {
          size_t sku = TakeRandom(rng, dead);
          live.push_back(sku);
          Add(w.stream, "ASSERT stock(" + Sku(sku) + ");", StmtClass::kWrite,
              "assert");
          break;
        }
        case kRetract: {
          size_t sku = TakeRandom(rng, live);
          dead.push_back(sku);
          Add(w.stream, "RETRACT stock(" + Sku(sku) + ");",
              StmtClass::kWrite, "retract");
          break;
        }
        case kFlip: {
          // Retract and immediately re-assert: the tuple comes back with a
          // fresh id, and the journal sees an erase and an insert.
          size_t sku = live[Pick(rng, live.size())];
          Add(w.stream, "RETRACT stock(" + Sku(sku) + ");",
              StmtClass::kWrite, "retract");
          Add(w.stream, "ASSERT stock(" + Sku(sku) + ");", StmtClass::kWrite,
              "assert");
          break;
        }
        case kSelectLeaf:
          Add(w.stream,
              "SELECT * FROM stock WHERE item = ALL " +
                  leaves[Pick(rng, leaves.size())] + ";",
              StmtClass::kRead, "select.leaf");
          break;
        case kCount:
          Add(w.stream, "COUNT stock;", StmtClass::kRead, "count",
              CountText("stock", live.size()));
          break;
      }
    }
    if (c % 2 == 1) {
      Add(w.stream, "CONSOLIDATE stock;", StmtClass::kMaint, "consolidate");
    }
  }
  w.final_counts["stock"] = live.size();
}

// --------------------------------------------------------------------------
// reshape: a product DAG (every sku under a category leaf and a brand),
// hierarchy edits, conflict-resolving transaction batches, full
// consolidation, DERIVE and join / explicate reads, at several threads.

void MakeReshape(Workload& w, Rng& rng, size_t cycles, Scale scale) {
  const size_t skus = scale == Scale::kToy ? 150 : 3000;
  const size_t leaf_fanout = 8, brands_n = 16, homes_n = 4,
               countries_per_home = 3;
  AddSetup(w, "SET THREADS " + std::to_string(w.threads) + ";");
  AddSetup(w, "CREATE HIERARCHY product;");
  Tree tree = EmitTree(w, /*depth=*/2, /*fanout=*/leaf_fanout);
  const std::vector<std::string>& leaves = tree.leaves();
  std::vector<std::string> brands;
  for (size_t b = 0; b < brands_n; ++b) {
    brands.push_back("brand" + std::to_string(b));
    AddSetup(w, "CREATE CLASS " + brands.back() + " IN product;");
  }
  // sku i sits under (leaf_of[i], brand_of[i]): multiple inheritance. The
  // skus are dealt round the (leaf, brand) pairs in a shuffled order, so
  // every pair holds the same number of skus give or take one, and every
  // leaf and every brand nearly the same: a seed changes which classes
  // meet, not how much work a batch or a join over one brand is.
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t l = 0; l < leaves.size(); ++l) {
    for (size_t b = 0; b < brands.size(); ++b) pairs.push_back({l, b});
  }
  Shuffle(rng, pairs);
  std::vector<size_t> leaf_of(skus), brand_of(skus);
  std::map<std::pair<size_t, size_t>, std::vector<size_t>> pair_skus;
  for (size_t i = 0; i < skus; ++i) {
    std::tie(leaf_of[i], brand_of[i]) = pairs[i % pairs.size()];
    pair_skus[{leaf_of[i], brand_of[i]}].push_back(i);
    AddSetup(w, "CREATE INSTANCE " + Sku(i) + " IN product UNDER " +
                    leaves[leaf_of[i]] + ", " + brands[brand_of[i]] + ";");
  }
  AddSetup(w, "CREATE HIERARCHY region;");
  std::vector<std::string> homes;
  std::vector<std::vector<std::string>> countries(homes_n);
  for (size_t h = 0; h < homes_n; ++h) {
    homes.push_back("home" + std::to_string(h));
    AddSetup(w, "CREATE CLASS " + homes.back() + " IN region;");
    for (size_t k = 0; k < countries_per_home; ++k) {
      countries[h].push_back("ctry" + std::to_string(h) + "_" +
                             std::to_string(k));
      AddSetup(w, "CREATE INSTANCE " + countries[h].back() +
                      " IN region UNDER " + homes.back() + ";");
    }
  }
  AddSetup(w, "CREATE CLASS intl IN region;");
  AddSetup(w, "CREATE RELATION stock (item: product);");
  AddSetup(w, "CREATE RELATION ships (item: product, dest: region);");
  AddSetup(w, "CREATE RELATION avail (item: product, dest: region);");

  // stock: every sku positive; DENYs on a few brands and leaves (all
  // negative, so the DAG's shared descendants see no conflict).
  AddSetup(w, "BEGIN stock;");
  std::vector<size_t> order(brands.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Shuffle(rng, order);
  for (size_t i = 0; i < 3; ++i) {
    AddSetup(w, "DENY stock(ALL " + brands[order[i]] + ");");
  }
  order.assign(leaves.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Shuffle(rng, order);
  for (size_t i = 0; i < 6; ++i) {
    AddSetup(w, "DENY stock(ALL " + leaves[order[i]] + ");");
  }
  for (size_t i = 0; i < skus; ++i) {
    AddSetup(w, "ASSERT stock(" + Sku(i) + ");");
  }
  AddSetup(w, "COMMIT;");

  // ships: class-level facts of mixed truth on the home regions. Each home
  // denies two top-level categories and asserts three leaves (exceptions
  // where they fall under a denied category). Then half of the skus get one
  // sku-level fact on a home, with the truth opposite to the one the sku
  // inherits there, so none is redundant. Categories form a tree and brands
  // carry no home facts, so these facts never conflict.
  AddSetup(w, "BEGIN ships;");
  // inherited[h][leaf]: +1 asserted, -1 denied (via its category), 0 none.
  std::vector<std::vector<int>> inherited(
      homes_n, std::vector<int>(leaves.size(), 0));
  for (size_t h = 0; h < homes_n; ++h) {
    std::vector<size_t> l1(tree.levels[0].size());
    for (size_t i = 0; i < l1.size(); ++i) l1[i] = i;
    Shuffle(rng, l1);
    for (size_t i = 0; i < 2; ++i) {
      AddSetup(w, "DENY ships(ALL " + tree.levels[0][l1[i]] + ", ALL " +
                      homes[h] + ");");
      for (size_t k = 0; k < leaf_fanout; ++k) {
        inherited[h][l1[i] * leaf_fanout + k] = -1;
      }
    }
    Shuffle(rng, order);
    for (size_t i = 0; i < 3; ++i) {
      AddSetup(w, "ASSERT ships(ALL " + leaves[order[i]] + ", ALL " +
                      homes[h] + ");");
      inherited[h][order[i]] = 1;
    }
  }
  for (size_t i = 0; i < skus; i += 2) {
    size_t h = Pick(rng, homes_n);
    AddSetup(w, std::string(inherited[h][leaf_of[i]] > 0 ? "DENY" : "ASSERT") +
                    " ships(" + Sku(i) + ", ALL " + homes[h] + ");");
  }
  AddSetup(w, "COMMIT;");
  AddSetup(w, "RULE 'avail(?i, ?d) :- stock(?i), ships(?i, ?d).';");
  AddSetup(w, "DERIVE;");
  for (const char* rel : {"stock", "ships", "avail"}) {
    AddSetup(w, std::string("COUNT ") + rel + ";");
  }

  // (leaf, brand) pairs for the cycles' mixed classes, without
  // replacement and in the dealing order, so each holds the most skus: a
  // pair's common descendants are its skus and the one class created for
  // it, so a batch knows every conflict site.
  cycles = std::min(cycles, pairs.size());
  std::vector<std::string> dests;
  for (size_t c = 0; c < cycles; ++c) {
    const auto [leaf, brand] = pairs[c % pairs.size()];
    const std::string mix = "mix" + std::to_string(c);
    const std::string dest = "dst" + std::to_string(c);
    // Hierarchy edits: a class under two parents, created either at once
    // or as CREATE + CONNECT; and a fresh destination, so this cycle's
    // facts are disjoint from every earlier cycle's.
    if (c % 2 == 0) {
      Add(w.stream,
          "CREATE CLASS " + mix + " IN product UNDER " + leaves[leaf] + ", " +
              brands[brand] + ";",
          StmtClass::kOther, "edit.create");
    } else {
      Add(w.stream,
          "CREATE CLASS " + mix + " IN product UNDER " + leaves[leaf] + ";",
          StmtClass::kOther, "edit.create");
      Add(w.stream,
          "CONNECT " + brands[brand] + " TO " + mix + " IN product;",
          StmtClass::kOther, "edit.connect");
    }
    Add(w.stream, "CREATE INSTANCE " + dest + " IN region UNDER intl;",
        StmtClass::kOther, "edit.instance");
    dests.push_back(dest);

    // A batch that creates a conflict (brand ships, leaf does not) and
    // resolves it at every maximal common descendant inside the batch.
    Add(w.stream, "BEGIN ships;", StmtClass::kOther, "begin");
    Add(w.stream, "ASSERT ships(ALL " + brands[brand] + ", " + dest + ");",
        StmtClass::kOther, "staged");
    Add(w.stream, "DENY ships(ALL " + leaves[leaf] + ", " + dest + ");",
        StmtClass::kOther, "staged");
    std::vector<std::string> sites = {"ALL " + mix};
    auto it = pair_skus.find({leaf, brand});
    if (it != pair_skus.end()) {
      for (size_t s : it->second) sites.push_back(Sku(s));
    }
    for (const std::string& site : sites) {
      Add(w.stream,
          std::string(Pick(rng, 2) == 0 ? "ASSERT" : "DENY") + " ships(" +
              site + ", " + dest + ");",
          StmtClass::kOther, "staged");
    }
    Add(w.stream, "COMMIT;", StmtClass::kMaint, "commit");
    Add(w.stream, "CONSOLIDATE ships;", StmtClass::kMaint, "consolidate");
    Add(w.stream, "DERIVE;", StmtClass::kMaint, "derive");

    // Reads name a destination, so each one's cost is set by one cycle's
    // batch (a brand's skus), not by a random slice of the catalog.
    std::vector<int> reads = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
    Shuffle(rng, reads);
    for (int r : reads) {
      const std::string& at = dests[Pick(rng, dests.size())];
      switch (r) {
        case 0:
          Add(w.stream, "SELECT * FROM ships JOIN stock WHERE dest = " + at +
                            ";",
              StmtClass::kRead, "join.stock");
          break;
        case 1:
          Add(w.stream, "SELECT * FROM avail JOIN ships WHERE dest = " + at +
                            ";",
              StmtClass::kRead, "join.avail");
          break;
        case 2:
          Add(w.stream, "EXPLICATE ships ON (dest);", StmtClass::kRead,
              "explicate");
          break;
      }
    }
  }
  w.relations = {"stock", "ships", "avail"};
}

}  // namespace

const char* StmtClassName(StmtClass cls) {
  switch (cls) {
    case StmtClass::kRead:
      return "read";
    case StmtClass::kWrite:
      return "write";
    case StmtClass::kMaint:
      return "maint";
    case StmtClass::kOther:
      return "other";
  }
  return "other";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"churn", "reshape"};
  return names;
}

size_t CyclesFor(const std::string& name, double seconds, Scale scale) {
  if (scale == Scale::kToy) return 3;
  // Cycles per second of `seconds`, the share of the run one replay of the
  // stream gets; at 30 s a whole run (three set-ups and replays, and the
  // host probe) took about 25 s of churn and 50 s of reshape on the 4-core
  // x86-64 host NOTES.md describes. Fixed, so a faster commit replays the
  // same stream in less time rather than a longer one. The floor keeps at
  // least 100 reads in every stream, ten beyond their 90th percentile.
  double rate = 1.0;
  size_t floor = 1;
  if (name == "churn") rate = 3.0, floor = 20;    // 5 reads a cycle
  if (name == "reshape") rate = 1.5, floor = 9;   // 12 reads a cycle
  return std::max(floor, static_cast<size_t>(std::lround(rate * seconds)));
}

bool MakeWorkload(const std::string& name, uint64_t seed, size_t cycles,
                  Scale scale, size_t threads, Workload* out) {
  Workload w;
  w.name = name;
  // Distinct streams per workload even for equal seeds.
  const auto& names = WorkloadNames();
  const uint64_t index = static_cast<uint64_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + index);
  if (name == "churn") {
    MakeChurn(w, rng, cycles, scale);
  } else if (name == "reshape") {
    w.threads = threads;
    MakeReshape(w, rng, cycles, scale);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace bench_e2e
