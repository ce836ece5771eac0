#include "plan/plan_node.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"

namespace hirel {
namespace plan {

const char* PlanOpToString(PlanOp op) {
  switch (op) {
    case PlanOp::kScan:
      return "Scan";
    case PlanOp::kSelect:
      return "Select";
    case PlanOp::kSelectWhere:
      return "SelectWhere";
    case PlanOp::kProject:
      return "Project";
    case PlanOp::kRename:
      return "Rename";
    case PlanOp::kJoin:
      return "Join";
    case PlanOp::kProduct:
      return "Product";
    case PlanOp::kSetOp:
      return "SetOp";
    case PlanOp::kConsolidate:
      return "Consolidate";
    case PlanOp::kExplicate:
      return "Explicate";
    case PlanOp::kAggregate:
      return "Aggregate";
  }
  return "?";
}

const char* SetOpKindToString(SetOpKind kind) {
  switch (kind) {
    case SetOpKind::kUnion:
      return "union";
    case SetOpKind::kIntersect:
      return "intersect";
    case SetOpKind::kExcept:
      return "difference";
  }
  return "?";
}

PlanPtr MakeScan(std::string relation) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kScan;
  node->relation = std::move(relation);
  return node;
}

PlanPtr MakeSelect(PlanPtr child, size_t attr, NodeId at,
                   std::string attr_name, std::string node_name) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kSelect;
  node->attr = attr;
  node->node = at;
  node->attr_name = std::move(attr_name);
  node->node_name = std::move(node_name);
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr MakeSelectWhere(PlanPtr child, size_t attr,
                        std::function<bool(const Value&)> predicate,
                        std::string description) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kSelectWhere;
  node->attr = attr;
  node->predicate = std::move(predicate);
  node->predicate_desc = std::move(description);
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr MakeProject(PlanPtr child, std::vector<size_t> positions) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kProject;
  node->positions = std::move(positions);
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr MakeRename(PlanPtr child,
                   std::vector<std::pair<std::string, std::string>> renames) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kRename;
  node->renames = std::move(renames);
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr MakeNaturalJoin(PlanPtr left, PlanPtr right) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kJoin;
  node->natural = true;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

PlanPtr MakeJoinOn(PlanPtr left, PlanPtr right,
                   std::vector<std::pair<size_t, size_t>> on) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kJoin;
  node->join_resolved = true;
  node->join_on = std::move(on);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

PlanPtr MakeProduct(PlanPtr left, PlanPtr right) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kProduct;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

PlanPtr MakeSetOp(SetOpKind kind, PlanPtr left, PlanPtr right) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kSetOp;
  node->setop = kind;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

PlanPtr MakeConsolidate(PlanPtr child) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kConsolidate;
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr MakeExplicate(PlanPtr child, std::vector<size_t> positions,
                      bool consolidate_after) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kExplicate;
  node->positions = std::move(positions);
  node->consolidate_after = consolidate_after;
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr MakeAggregate(PlanPtr child, AggregateOp op, size_t attr,
                      std::string attr_name) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanOp::kAggregate;
  node->aggregate = op;
  node->attr = attr;
  node->attr_name = std::move(attr_name);
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr ClonePlan(const PlanNode& node) {
  auto copy = std::make_unique<PlanNode>();
  copy->op = node.op;
  copy->relation = node.relation;
  copy->attr = node.attr;
  copy->node = node.node;
  copy->attr_name = node.attr_name;
  copy->node_name = node.node_name;
  copy->predicate = node.predicate;
  copy->predicate_desc = node.predicate_desc;
  copy->positions = node.positions;
  copy->renames = node.renames;
  copy->natural = node.natural;
  copy->join_resolved = node.join_resolved;
  copy->join_on = node.join_on;
  copy->setop = node.setop;
  copy->consolidate_after = node.consolidate_after;
  copy->aggregate = node.aggregate;
  for (const PlanPtr& child : node.children) {
    copy->children.push_back(ClonePlan(*child));
  }
  return copy;
}

namespace {

Status ExpectChildren(const PlanNode& node, size_t n) {
  if (node.children.size() != n) {
    return Status::Internal(StrCat("plan: ", PlanOpToString(node.op),
                                   " node expects ", n, " input(s), has ",
                                   node.children.size()));
  }
  return Status::OK();
}

/// Fraction of an attribute's domain covered by the sub-hierarchy at
/// `node`; the classic selectivity estimate, over hierarchy atoms instead
/// of a value histogram.
double Selectivity(const Hierarchy* h, NodeId node) {
  double total = static_cast<double>(h->CountAtomsUnder(h->root()));
  if (total < 1) return 1.0;
  double under = static_cast<double>(h->CountAtomsUnder(node));
  return std::max(under, 1.0) / std::max(total, 1.0);
}

Status Annotate(PlanNode& node, const Database& db) {
  for (const PlanPtr& child : node.children) {
    HIREL_RETURN_IF_ERROR(Annotate(*child, db));
  }
  node.schema = Schema();
  switch (node.op) {
    case PlanOp::kScan: {
      HIREL_RETURN_IF_ERROR(ExpectChildren(node, 0));
      Result<const HierarchicalRelation*> rel = db.GetRelation(node.relation);
      if (rel.ok()) {
        node.schema = (*rel)->schema();
        node.out_name = (*rel)->name();
        node.est_rows = static_cast<double>((*rel)->size());
        node.est_cost = node.est_rows;
        break;
      }
      // Virtual (sys.*) relations: schema from the provider, whose
      // hierarchy domains are refreshed so WHERE terms over this scan
      // resolve before anything is materialized.
      VirtualRelationProvider* provider =
          db.FindVirtualRelation(node.relation);
      if (provider == nullptr) return rel.status();
      provider->RefreshDomains();
      node.schema = provider->schema();
      node.out_name = provider->name();
      node.est_rows = static_cast<double>(provider->EstimatedRows());
      node.est_cost = node.est_rows;
      break;
    }
    case PlanOp::kSelect: {
      HIREL_RETURN_IF_ERROR(ExpectChildren(node, 1));
      const PlanNode& child = *node.children[0];
      if (node.attr >= child.schema.size()) {
        return Status::InvalidArgument(
            StrCat("select: attribute position ", node.attr, " out of range"));
      }
      const Hierarchy* h = child.schema.hierarchy(node.attr);
      if (node.node == kInvalidNode || !h->alive(node.node)) {
        return Status::InvalidArgument(
            StrCat("select: unknown node for attribute '",
                   child.schema.name(node.attr), "'"));
      }
      node.schema = child.schema;
      node.out_name = StrCat(child.out_name, "_select_", h->NodeName(node.node));
      node.est_rows =
          std::max(1.0, child.est_rows * Selectivity(h, node.node));
      node.est_cost = child.est_cost + child.est_rows;
      break;
    }
    case PlanOp::kSelectWhere: {
      HIREL_RETURN_IF_ERROR(ExpectChildren(node, 1));
      const PlanNode& child = *node.children[0];
      if (node.attr >= child.schema.size()) {
        return Status::InvalidArgument(
            StrCat("select: attribute position ", node.attr, " out of range"));
      }
      node.schema = child.schema;
      node.out_name = StrCat(child.out_name, "_where");
      // The predicate is opaque; assume the classic 1/3 selectivity. The
      // explication of `attr` that SelectWhere performs dominates the cost.
      node.est_rows = std::max(1.0, child.est_rows / 3.0);
      node.est_cost = child.est_cost + 4.0 * child.est_rows;
      break;
    }
    case PlanOp::kProject: {
      HIREL_RETURN_IF_ERROR(ExpectChildren(node, 1));
      const PlanNode& child = *node.children[0];
      std::vector<bool> seen(child.schema.size(), false);
      for (size_t p : node.positions) {
        if (p >= child.schema.size()) {
          return Status::InvalidArgument(
              StrCat("project: attribute position ", p, " out of range"));
        }
        if (seen[p]) {
          return Status::InvalidArgument(
              StrCat("project: duplicate attribute position ", p));
        }
        seen[p] = true;
        HIREL_RETURN_IF_ERROR(node.schema.Append(
            child.schema.name(p), child.schema.hierarchy(p)));
      }
      node.out_name = StrCat(child.out_name, "_project");
      node.est_rows = child.est_rows;
      node.est_cost = child.est_cost + 2.0 * child.est_rows;
      break;
    }
    case PlanOp::kRename: {
      HIREL_RETURN_IF_ERROR(ExpectChildren(node, 1));
      const PlanNode& child = *node.children[0];
      std::vector<std::string> names;
      for (size_t i = 0; i < child.schema.size(); ++i) {
        names.push_back(child.schema.name(i));
      }
      for (const auto& [from, to] : node.renames) {
        auto it = std::find(names.begin(), names.end(), from);
        if (it == names.end()) {
          return Status::NotFound(StrCat("rename: attribute '", from, "'"));
        }
        *it = to;
      }
      for (size_t i = 0; i < names.size(); ++i) {
        HIREL_RETURN_IF_ERROR(node.schema.Append(
            names[i], child.schema.hierarchy(i)));
      }
      node.out_name = StrCat(child.out_name, "_renamed");
      node.est_rows = child.est_rows;
      node.est_cost = child.est_cost + child.est_rows;
      break;
    }
    case PlanOp::kJoin:
    case PlanOp::kProduct: {
      HIREL_RETURN_IF_ERROR(ExpectChildren(node, 2));
      const PlanNode& left = *node.children[0];
      const PlanNode& right = *node.children[1];
      const Schema& ls = left.schema;
      const Schema& rs = right.schema;
      if (node.op == PlanOp::kProduct) node.join_on.clear();
      if (node.op == PlanOp::kJoin && node.natural && !node.join_resolved) {
        node.join_on.clear();
        for (size_t i = 0; i < ls.size(); ++i) {
          Result<size_t> j = rs.IndexOf(ls.name(i));
          if (!j.ok()) continue;
          if (ls.hierarchy(i) != rs.hierarchy(*j)) {
            return Status::InvalidArgument(
                StrCat("natural join: shared attribute '", ls.name(i),
                       "' ranges over different hierarchies"));
          }
          node.join_on.emplace_back(i, *j);
        }
        node.join_resolved = true;
      }
      std::vector<bool> is_join_pos(rs.size(), false);
      double selectivity = 1.0;
      for (const auto& [li, ri] : node.join_on) {
        if (li >= ls.size() || ri >= rs.size()) {
          return Status::InvalidArgument(
              "join: attribute position out of range");
        }
        if (ls.hierarchy(li) != rs.hierarchy(ri)) {
          return Status::InvalidArgument(
              StrCat("join: attributes '", ls.name(li), "' and '", rs.name(ri),
                     "' range over different hierarchies"));
        }
        is_join_pos[ri] = true;
        const Hierarchy* h = ls.hierarchy(li);
        double atoms = static_cast<double>(h->CountAtomsUnder(h->root()));
        selectivity /= std::max(atoms, 1.0);
      }
      for (size_t i = 0; i < ls.size(); ++i) {
        HIREL_RETURN_IF_ERROR(node.schema.Append(ls.name(i), ls.hierarchy(i)));
      }
      for (size_t j = 0; j < rs.size(); ++j) {
        if (is_join_pos[j]) continue;
        std::string name = rs.name(j);
        if (node.schema.IndexOf(name).ok()) {
          name = StrCat(right.out_name, ".", name);
        }
        HIREL_RETURN_IF_ERROR(node.schema.Append(std::move(name),
                                                 rs.hierarchy(j)));
      }
      node.out_name = StrCat(left.out_name, "_join_", right.out_name);
      double cross = left.est_rows * right.est_rows;
      node.est_rows = std::max(1.0, cross * selectivity);
      node.est_cost = left.est_cost + right.est_cost + cross;
      break;
    }
    case PlanOp::kSetOp: {
      HIREL_RETURN_IF_ERROR(ExpectChildren(node, 2));
      const PlanNode& left = *node.children[0];
      const PlanNode& right = *node.children[1];
      if (!left.schema.CompatibleWith(right.schema)) {
        return Status::InvalidArgument(
            StrCat("set operation '", SetOpKindToString(node.setop),
                   "': schemas of '", left.out_name, "' and '",
                   right.out_name, "' are incompatible"));
      }
      node.schema = left.schema;
      node.out_name = StrCat(left.out_name, "_", SetOpKindToString(node.setop),
                             "_", right.out_name);
      switch (node.setop) {
        case SetOpKind::kUnion:
          node.est_rows = left.est_rows + right.est_rows;
          break;
        case SetOpKind::kIntersect:
          node.est_rows = std::min(left.est_rows, right.est_rows);
          break;
        case SetOpKind::kExcept:
          node.est_rows = left.est_rows;
          break;
      }
      node.est_rows = std::max(1.0, node.est_rows);
      node.est_cost = left.est_cost + right.est_cost +
                      left.est_rows * right.est_rows;
      break;
    }
    case PlanOp::kConsolidate: {
      HIREL_RETURN_IF_ERROR(ExpectChildren(node, 1));
      const PlanNode& child = *node.children[0];
      node.schema = child.schema;
      node.out_name = child.out_name;
      node.est_rows = child.est_rows;
      // Consolidation builds (or reuses) the subsumption graph: quadratic
      // in the worst case, but cached for base relations.
      node.est_cost = child.est_cost + child.est_rows * child.est_rows;
      break;
    }
    case PlanOp::kExplicate: {
      HIREL_RETURN_IF_ERROR(ExpectChildren(node, 1));
      const PlanNode& child = *node.children[0];
      std::vector<bool> seen(child.schema.size(), false);
      for (size_t p : node.positions) {
        if (p >= child.schema.size()) {
          return Status::InvalidArgument(
              StrCat("explicate: attribute position ", p, " out of range"));
        }
        if (seen[p]) {
          return Status::InvalidArgument(
              StrCat("explicate: duplicate attribute position ", p));
        }
        seen[p] = true;
      }
      node.schema = child.schema;
      node.out_name = StrCat(child.out_name, "_explicated");
      double fanout = 1.0;
      size_t n = node.positions.empty() ? child.schema.size()
                                        : node.positions.size();
      for (size_t k = 0; k < n; ++k) {
        size_t p = node.positions.empty() ? k : node.positions[k];
        const Hierarchy* h = child.schema.hierarchy(p);
        double atoms = static_cast<double>(h->CountAtomsUnder(h->root()));
        // A class component fans out to its members; assume roughly half
        // the domain sits under a typical stored class.
        fanout *= std::max(1.0, std::sqrt(std::max(atoms, 1.0)));
      }
      node.est_rows = std::max(1.0, child.est_rows * fanout);
      node.est_cost = child.est_cost + node.est_rows;
      break;
    }
    case PlanOp::kAggregate: {
      HIREL_RETURN_IF_ERROR(ExpectChildren(node, 1));
      const PlanNode& child = *node.children[0];
      if (node.aggregate == AggregateOp::kCountBy &&
          node.attr >= child.schema.size()) {
        return Status::InvalidArgument(
            StrCat("rollup: attribute position ", node.attr, " out of range"));
      }
      node.out_name = StrCat("count_", child.out_name);
      node.est_rows = 1.0;
      node.est_cost = child.est_cost + child.est_rows;
      break;
    }
  }
  node.annotated = true;
  return Status::OK();
}

}  // namespace

Status AnnotatePlan(PlanNode& root, const Database& db) {
  return Annotate(root, db);
}

}  // namespace plan
}  // namespace hirel
