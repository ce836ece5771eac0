// VirtualRelationProvider: read-only relations materialized on scan.
//
// A provider is registered on a Database under a reserved "sys."-prefixed
// name and produces a HierarchicalRelation on demand — the engine's own
// telemetry (metrics, log events, catalog state, query history) exposed
// through the same hierarchical model it implements, so selection,
// projection, join, and subsumption-aware queries work on it unchanged
// ("Stored and Inherited Relations"-style virtual relations; see
// obs/sys_catalog.h for the concrete providers).
//
// Contract:
//  * Rows() is the one row source: typed values in display order, one
//    per schema column. It interns nothing, so rendering a provider
//    (SHOW, JSON, diagnostics bundles) leaves the hierarchy domains as
//    they were.
//  * schema() returns a schema whose hierarchies are owned by (or
//    registered on) the same Database.
//  * RefreshDomains() interns every value Rows() would produce, so WHERE
//    terms resolve at plan-compile time, before Materialize runs.
//  * Materialize() builds a fresh relation over exactly that schema; the
//    plan executor owns the result, so nothing is cached and the
//    subsumption-graph cache is bypassed automatically.
//  * EstimatedRows() is a row-count hint for the plan annotator.
//
// Providers registered on a Database must outlive every scan; the Database
// owns them and must not be moved afterwards (providers keep back-pointers).

#ifndef HIREL_CATALOG_VIRTUAL_RELATION_H_
#define HIREL_CATALOG_VIRTUAL_RELATION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/hierarchical_relation.h"
#include "types/schema.h"
#include "types/value.h"

namespace hirel {

/// One row of a virtual relation: one value per schema column.
using VirtualRow = std::vector<Value>;

class VirtualRelationProvider {
 public:
  virtual ~VirtualRelationProvider() = default;

  /// The reserved catalog name ("sys.metrics", "sys.queries", ...).
  virtual const std::string& name() const = 0;

  /// The relation's schema (column names and hierarchy domains).
  virtual const Schema& schema() const = 0;

  /// The current rows, in display order.
  virtual std::vector<VirtualRow> Rows() = 0;

  /// Interns every value of Rows() into the schema's domains.
  virtual void RefreshDomains() = 0;

  /// Row-count hint for plan annotation; need not be exact.
  virtual size_t EstimatedRows() = 0;

  /// Builds the relation's current contents.
  virtual Result<HierarchicalRelation> Materialize() = 0;
};

}  // namespace hirel

#endif  // HIREL_CATALOG_VIRTUAL_RELATION_H_
