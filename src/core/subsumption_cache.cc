#include "core/subsumption_cache.h"

#include <algorithm>

#include "common/str_util.h"
#include "obs/log.h"
#include "obs/wait.h"

namespace hirel {

namespace {

// The map latch protects entry lookup and stats; the per-entry build
// latch serializes same-relation validate/rebuild. Both are on the
// concurrent Get path, so contention here is wait-class latch.
obs::WaitEventRegistry::Site& MapLatchSite() {
  static obs::WaitEventRegistry::Site& site =
      obs::WaitEventRegistry::Global().RegisterSite("cache.map_latch",
                                                    obs::WaitClass::kLatch);
  return site;
}

obs::WaitEventRegistry::Site& EntryLatchSite() {
  static obs::WaitEventRegistry::Site& site =
      obs::WaitEventRegistry::Global().RegisterSite("cache.entry_latch",
                                                    obs::WaitClass::kLatch);
  return site;
}

}  // namespace

std::vector<uint64_t> SubsumptionCache::HierarchyVersions(
    const HierarchicalRelation& relation) {
  const Schema& schema = relation.schema();
  std::vector<uint64_t> versions;
  versions.reserve(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    versions.push_back(schema.hierarchy(i)->version());
  }
  return versions;
}

bool SubsumptionCache::Matches(const Entry& entry,
                               const HierarchicalRelation& relation) {
  return entry.relation_version == relation.version() &&
         entry.hierarchy_versions == HierarchyVersions(relation);
}

const SubsumptionGraph& SubsumptionCache::Get(
    const HierarchicalRelation& relation, size_t threads,
    GetOutcome* outcome) {
  Entry* entry;
  {
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    std::unique_ptr<Entry>& slot = entries_[relation.name()];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  // Build (or validate) outside the map lock so misses on different
  // relations proceed in parallel; the per-entry latch coalesces
  // same-name rebuilds and makes the version check race-free.
  obs::TrackedLock<std::mutex> build_lock(entry->build_mutex,
                                          EntryLatchSite());
  if (entry->relation_version != 0 && Matches(*entry, relation)) {
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    ++stats_.hits;
    if (outcome != nullptr) *outcome = GetOutcome::kHit;
    return entry->graph;
  }
  {
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    ++stats_.misses;
    ++stats_.rebuilds;
  }
  entry->graph = BuildSubsumptionGraph(relation, threads);
  ++entry->rebuilds;
  entry->relation_version = relation.version();
  entry->hierarchy_versions = HierarchyVersions(relation);
  if (outcome != nullptr) *outcome = GetOutcome::kRebuilt;
  return entry->graph;
}

bool SubsumptionCache::Fresh(const HierarchicalRelation& relation) const {
  Entry* entry = nullptr;
  {
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    auto it = entries_.find(relation.name());
    if (it == entries_.end()) return false;
    entry = it->second.get();
  }
  obs::TrackedLock<std::mutex> build_lock(entry->build_mutex,
                                          EntryLatchSite());
  return entry->relation_version != 0 && Matches(*entry, relation);
}

void SubsumptionCache::Invalidate(const std::string& name) {
  bool erased;
  {
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    erased = entries_.erase(name) > 0;
    if (erased) ++stats_.invalidations;
  }
  if (erased) {
    HIREL_LOG(obs::LogLevel::kDebug, "subsumption_cache", "invalidate",
              {{"relation", name}});
  }
}

void SubsumptionCache::Clear() {
  size_t dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped = entries_.size();
    stats_.invalidations += dropped;
    entries_.clear();
  }
  HIREL_LOG(obs::LogLevel::kDebug, "subsumption_cache", "clear",
            {{"entries", StrCat(dropped)}});
}

size_t SubsumptionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

SubsumptionCache::Stats SubsumptionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<SubsumptionCache::EntryInfo> SubsumptionCache::Entries() const {
  std::vector<std::pair<std::string, Entry*>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      snapshot.emplace_back(name, entry.get());
    }
  }
  std::sort(snapshot.begin(), snapshot.end());
  std::vector<EntryInfo> out;
  out.reserve(snapshot.size());
  for (auto& [name, entry] : snapshot) {
    std::lock_guard<std::mutex> build_lock(entry->build_mutex);
    EntryInfo info;
    info.relation = std::move(name);
    info.relation_version = entry->relation_version;
    info.graph_nodes = entry->graph.nodes.size();
    info.rebuilds = entry->rebuilds;
    out.push_back(std::move(info));
  }
  return out;
}

void SubsumptionCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = Stats{};
}

}  // namespace hirel
