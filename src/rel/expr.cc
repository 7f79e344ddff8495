#include "rel/expr.h"

#include <cstring>

namespace gea::rel {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

bool ApplyOp(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// Tight per-op loops over a typed array versus one literal. Each form is
// spelled with only operator< so the three-way semantics of Value::Compare
// (including "incomparable compares equal", which NaN hits for doubles)
// carry over exactly: cmp==0 <=> !(v<l) && !(l<v).
template <typename T, typename L>
void CompareFill(const T* vals, size_t n, L lit, CompareOp op, uint8_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = 0; i < n; ++i)
        out[i] = !(static_cast<L>(vals[i]) < lit) &&
                 !(lit < static_cast<L>(vals[i]));
      break;
    case CompareOp::kNe:
      for (size_t i = 0; i < n; ++i)
        out[i] =
            static_cast<L>(vals[i]) < lit || lit < static_cast<L>(vals[i]);
      break;
    case CompareOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<L>(vals[i]) < lit;
      break;
    case CompareOp::kLe:
      for (size_t i = 0; i < n; ++i)
        out[i] = !(lit < static_cast<L>(vals[i]));
      break;
    case CompareOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = lit < static_cast<L>(vals[i]);
      break;
    case CompareOp::kGe:
      for (size_t i = 0; i < n; ++i)
        out[i] = !(static_cast<L>(vals[i]) < lit);
      break;
  }
}

// Zeroes mask slots whose row is NULL (comparisons against NULL are false).
void MaskNulls(const Column& col, size_t begin, size_t end, uint8_t* out) {
  if (col.null_count() == 0) return;
  const uint64_t* words = col.null_words();
  for (size_t i = begin; i < end; ++i) {
    if ((words[i >> 6] >> (i & 63)) & 1) out[i - begin] = 0;
  }
}

// Batch form of `ApplyOp(op, cell.Compare(lit))` for non-null cells of one
// column against a non-null literal; NULL cells come out 0. String columns
// resolve the comparison once per dictionary entry and then map codes, so
// an equality/IN probe over a tag column is one table lookup per row.
void EvalCompareMask(const Column& col, size_t begin, size_t end,
                     CompareOp op, const Value& lit, uint8_t* out) {
  const size_t n = end - begin;
  const bool lit_numeric = lit.IsNumeric();
  switch (col.type()) {
    case ValueType::kInt:
      if (lit.type() == ValueType::kInt) {
        CompareFill(col.int_data() + begin, n, lit.AsInt(), op, out);
      } else if (lit.type() == ValueType::kDouble) {
        CompareFill(col.int_data() + begin, n, lit.AsDouble(), op, out);
      } else {
        std::memset(out, ApplyOp(op, -1) ? 1 : 0, n);  // number < string
      }
      break;
    case ValueType::kDouble:
      if (lit_numeric) {
        CompareFill(col.double_data() + begin, n, lit.AsNumeric(), op, out);
      } else {
        std::memset(out, ApplyOp(op, -1) ? 1 : 0, n);
      }
      break;
    case ValueType::kString:
      if (lit.type() == ValueType::kString) {
        const std::vector<std::string>& dict = col.dict();
        std::vector<uint8_t> verdict(dict.size());
        for (size_t d = 0; d < dict.size(); ++d) {
          const int c = dict[d].compare(lit.AsString());
          verdict[d] = ApplyOp(op, c < 0 ? -1 : (c > 0 ? 1 : 0)) ? 1 : 0;
        }
        const uint32_t* codes = col.code_data() + begin;
        for (size_t i = 0; i < n; ++i) out[i] = verdict[codes[i]];
      } else {
        std::memset(out, ApplyOp(op, 1) ? 1 : 0, n);  // string > number
      }
      break;
    case ValueType::kNull:
      std::memset(out, 0, n);
      return;  // every cell is NULL; nothing to mask
  }
  MaskNulls(col, begin, end, out);
}

class ComparePredicate : public Predicate {
 public:
  ComparePredicate(std::string column, CompareOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  Status Bind(const Schema& schema) override {
    GEA_ASSIGN_OR_RETURN(index_, schema.ColumnIndex(column_));
    return Status::OK();
  }

  void EvalColumnar(const Table& table, size_t begin, size_t end,
                    uint8_t* out) const override {
    if (literal_.is_null()) {
      std::memset(out, 0, end - begin);
      return;
    }
    EvalCompareMask(table.column(index_), begin, end, op_, literal_, out);
  }

  std::string ToString() const override {
    return column_ + " " + CompareOpName(op_) + " " + literal_.ToString();
  }

 private:
  std::string column_;
  CompareOp op_;
  Value literal_;
  size_t index_ = 0;
};

class CompareColumnsPredicate : public Predicate {
 public:
  CompareColumnsPredicate(std::string lhs, CompareOp op, std::string rhs)
      : lhs_(std::move(lhs)), op_(op), rhs_(std::move(rhs)) {}

  Status Bind(const Schema& schema) override {
    GEA_ASSIGN_OR_RETURN(lhs_index_, schema.ColumnIndex(lhs_));
    GEA_ASSIGN_OR_RETURN(rhs_index_, schema.ColumnIndex(rhs_));
    return Status::OK();
  }

  void EvalColumnar(const Table& table, size_t begin, size_t end,
                    uint8_t* out) const override {
    const Column& a = table.column(lhs_index_);
    const Column& b = table.column(rhs_index_);
    for (size_t i = begin; i < end; ++i) {
      out[i - begin] = (!a.IsNull(i) && !b.IsNull(i) &&
                        ApplyOp(op_, Column::CompareAcross(a, i, b, i)))
                           ? 1
                           : 0;
    }
  }

  std::string ToString() const override {
    return lhs_ + " " + CompareOpName(op_) + " " + rhs_;
  }

 private:
  std::string lhs_;
  CompareOp op_;
  std::string rhs_;
  size_t lhs_index_ = 0;
  size_t rhs_index_ = 0;
};

class IsNullPredicate : public Predicate {
 public:
  IsNullPredicate(std::string column, bool negate)
      : column_(std::move(column)), negate_(negate) {}

  Status Bind(const Schema& schema) override {
    GEA_ASSIGN_OR_RETURN(index_, schema.ColumnIndex(column_));
    return Status::OK();
  }

  void EvalColumnar(const Table& table, size_t begin, size_t end,
                    uint8_t* out) const override {
    const Column& col = table.column(index_);
    for (size_t i = begin; i < end; ++i) {
      out[i - begin] = (col.IsNull(i) != negate_) ? 1 : 0;
    }
  }

  std::string ToString() const override {
    return column_ + (negate_ ? " IS NOT NULL" : " IS NULL");
  }

 private:
  std::string column_;
  bool negate_;
  size_t index_ = 0;
};

class BetweenPredicate : public Predicate {
 public:
  BetweenPredicate(std::string column, Value lo, Value hi)
      : column_(std::move(column)), lo_(std::move(lo)), hi_(std::move(hi)) {}

  Status Bind(const Schema& schema) override {
    GEA_ASSIGN_OR_RETURN(index_, schema.ColumnIndex(column_));
    return Status::OK();
  }

  void EvalColumnar(const Table& table, size_t begin, size_t end,
                    uint8_t* out) const override {
    const size_t n = end - begin;
    const Column& col = table.column(index_);
    // NULL bounds follow Value::Compare's rank rule: any non-null cell is
    // > NULL, so a NULL lo passes every non-null cell and a NULL hi fails
    // all of them.
    if (hi_.is_null()) {
      std::memset(out, 0, n);
      return;
    }
    if (lo_.is_null()) {
      std::memset(out, 1, n);
      MaskNulls(col, begin, end, out);
    } else {
      EvalCompareMask(col, begin, end, CompareOp::kGe, lo_, out);
    }
    std::vector<uint8_t> hi_ok(n);
    EvalCompareMask(col, begin, end, CompareOp::kLe, hi_, hi_ok.data());
    for (size_t i = 0; i < n; ++i) out[i] &= hi_ok[i];
  }

  std::string ToString() const override {
    return column_ + " BETWEEN " + lo_.ToString() + " AND " + hi_.ToString();
  }

 private:
  std::string column_;
  Value lo_;
  Value hi_;
  size_t index_ = 0;
};

class AndPredicate : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  Status Bind(const Schema& schema) override {
    for (auto& child : children_) GEA_RETURN_IF_ERROR(child->Bind(schema));
    return Status::OK();
  }

  void EvalColumnar(const Table& table, size_t begin, size_t end,
                    uint8_t* out) const override {
    const size_t n = end - begin;
    if (children_.empty()) {
      std::memset(out, 1, n);
      return;
    }
    children_[0]->EvalColumnar(table, begin, end, out);
    std::vector<uint8_t> child_mask(n);
    for (size_t c = 1; c < children_.size(); ++c) {
      children_[c]->EvalColumnar(table, begin, end, child_mask.data());
      for (size_t i = 0; i < n; ++i) out[i] &= child_mask[i];
    }
  }

  std::string ToString() const override { return Combine(" AND "); }

 protected:
  std::string Combine(const std::string& sep) const {
    std::string out = "(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += sep;
      out += children_[i]->ToString();
    }
    out += ")";
    return out;
  }

  std::vector<PredicatePtr> children_;
};

class OrPredicate : public AndPredicate {
 public:
  explicit OrPredicate(std::vector<PredicatePtr> children)
      : AndPredicate(std::move(children)) {}

  void EvalColumnar(const Table& table, size_t begin, size_t end,
                    uint8_t* out) const override {
    const size_t n = end - begin;
    std::memset(out, 0, n);
    std::vector<uint8_t> child_mask(n);
    for (const auto& child : children_) {
      child->EvalColumnar(table, begin, end, child_mask.data());
      for (size_t i = 0; i < n; ++i) out[i] |= child_mask[i];
    }
  }

  std::string ToString() const override { return Combine(" OR "); }
};

class NotPredicate : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr child) : child_(std::move(child)) {}

  Status Bind(const Schema& schema) override { return child_->Bind(schema); }

  void EvalColumnar(const Table& table, size_t begin, size_t end,
                    uint8_t* out) const override {
    child_->EvalColumnar(table, begin, end, out);
    for (size_t i = 0; i < end - begin; ++i) out[i] = out[i] ? 0 : 1;
  }

  std::string ToString() const override {
    return "NOT " + child_->ToString();
  }

 private:
  PredicatePtr child_;
};

class TruePredicate : public Predicate {
 public:
  Status Bind(const Schema&) override { return Status::OK(); }
  void EvalColumnar(const Table&, size_t begin, size_t end,
                    uint8_t* out) const override {
    std::memset(out, 1, end - begin);
  }
  std::string ToString() const override { return "TRUE"; }
};

}  // namespace

PredicatePtr Compare(std::string column, CompareOp op, Value literal) {
  return std::make_unique<ComparePredicate>(std::move(column), op,
                                            std::move(literal));
}

PredicatePtr CompareColumns(std::string lhs, CompareOp op, std::string rhs) {
  return std::make_unique<CompareColumnsPredicate>(std::move(lhs), op,
                                                   std::move(rhs));
}

PredicatePtr IsNull(std::string column) {
  return std::make_unique<IsNullPredicate>(std::move(column), false);
}

PredicatePtr IsNotNull(std::string column) {
  return std::make_unique<IsNullPredicate>(std::move(column), true);
}

PredicatePtr Between(std::string column, Value lo, Value hi) {
  return std::make_unique<BetweenPredicate>(std::move(column), std::move(lo),
                                            std::move(hi));
}

PredicatePtr And(std::vector<PredicatePtr> children) {
  return std::make_unique<AndPredicate>(std::move(children));
}

PredicatePtr Or(std::vector<PredicatePtr> children) {
  return std::make_unique<OrPredicate>(std::move(children));
}

PredicatePtr Not(PredicatePtr child) {
  return std::make_unique<NotPredicate>(std::move(child));
}

PredicatePtr True() { return std::make_unique<TruePredicate>(); }

}  // namespace gea::rel
