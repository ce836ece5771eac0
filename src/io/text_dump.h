// Human-readable rendering of hierarchies and relations, in the style of
// the paper's figures. Used by the examples, the HQL shell, and the
// figure-reproduction binaries.

#ifndef HIREL_IO_TEXT_DUMP_H_
#define HIREL_IO_TEXT_DUMP_H_

#include <string>
#include <vector>

#include "core/hierarchical_relation.h"
#include "flat/flat_relation.h"
#include "hierarchy/hierarchy.h"

namespace hirel {

/// Indented tree/DAG rendering of a hierarchy; nodes with several parents
/// appear under each parent, marked with "^" after the first occurrence.
std::string FormatHierarchy(const Hierarchy& hierarchy);

/// ASCII table: `title` (omitted when empty), a header row, then `rows`
/// in the order given; every column is as wide as its widest cell.
std::string FormatTable(const std::string& title,
                        const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows);

/// ASCII table: a +/- truth column followed by one column per attribute;
/// class values are rendered as "ALL <name>" (the paper's "∀C").
std::string FormatRelation(const HierarchicalRelation& relation);

/// ASCII table of a flat relation.
std::string FormatFlatRelation(const FlatRelation& relation);

/// ASCII table of an extension (list of atomic items).
std::string FormatExtension(const Schema& schema,
                            const std::vector<Item>& extension,
                            const std::string& title);

/// Graphviz DOT rendering of a hierarchy: classes as boxes, instances as
/// ellipses, subsumption edges solid, preference edges dashed. Pipe into
/// `dot -Tsvg` to draw Fig. 1a-style diagrams of your own taxonomies.
std::string FormatHierarchyDot(const Hierarchy& hierarchy);

}  // namespace hirel

#endif  // HIREL_IO_TEXT_DUMP_H_
