#ifndef GEA_REL_EXPR_H_
#define GEA_REL_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "rel/schema.h"
#include "rel/table.h"
#include "rel/value.h"

namespace gea::rel {

/// Comparison operators usable in selection predicates.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

const char* CompareOpName(CompareOp op);

/// A boolean predicate over rows of a given schema. Predicates are built
/// with the factory functions below and evaluated a column batch at a
/// time; they are the WHERE clauses of the extensional world (Section
/// 3.2.4).
///
/// SQL-style NULL handling: a comparison against NULL is false (except
/// IsNull), so selections silently drop NULL cells, matching how GEA's
/// selections skip null gap values.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Binds column names to indices in `schema`; must be called (directly or
  /// through Select) before EvalColumnar.
  virtual Status Bind(const Schema& schema) = 0;

  /// Batch evaluation: writes 1/0 into out[i - begin] for rows
  /// [begin, end) of `table`, which must match the bound schema. Kernels
  /// run over raw column arrays (no Value boxing) and agree row by row
  /// with Value::Compare under the NULL rule above.
  virtual void EvalColumnar(const Table& table, size_t begin, size_t end,
                            uint8_t* out) const = 0;

  /// Human-readable form for lineage metadata.
  virtual std::string ToString() const = 0;
};

using PredicatePtr = std::unique_ptr<Predicate>;

/// column <op> literal
PredicatePtr Compare(std::string column, CompareOp op, Value literal);

/// columnA <op> columnB
PredicatePtr CompareColumns(std::string lhs, CompareOp op, std::string rhs);

/// column IS NULL / IS NOT NULL
PredicatePtr IsNull(std::string column);
PredicatePtr IsNotNull(std::string column);

/// lo <= column <= hi (both inclusive); NULL cells fail. This is the range
/// condition populate() evaluates tens of thousands of times (Section
/// 3.3.2).
PredicatePtr Between(std::string column, Value lo, Value hi);

/// Boolean combinators.
PredicatePtr And(std::vector<PredicatePtr> children);
PredicatePtr Or(std::vector<PredicatePtr> children);
PredicatePtr Not(PredicatePtr child);

/// Always-true predicate.
PredicatePtr True();

}  // namespace gea::rel

#endif  // GEA_REL_EXPR_H_
