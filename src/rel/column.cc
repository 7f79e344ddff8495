#include "rel/column.h"

#include <utility>

namespace gea::rel {

Value Column::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case ValueType::kInt:
      return Value::Int(ints_[row]);
    case ValueType::kDouble:
      return Value::Double(doubles_[row]);
    case ValueType::kString:
      return Value::String(dict_[codes_[row]]);
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

void Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kInt:
      if (v.IsNumeric()) {
        AppendInt(v.type() == ValueType::kInt
                      ? v.AsInt()
                      : static_cast<int64_t>(v.AsDouble()));
        return;
      }
      break;
    case ValueType::kDouble:
      if (v.IsNumeric()) {
        AppendDouble(v.AsNumeric());
        return;
      }
      break;
    case ValueType::kString:
      if (v.type() == ValueType::kString) {
        AppendString(v.AsString());
        return;
      }
      break;
    case ValueType::kNull:
      break;
  }
  AppendNull();
}

void Column::AppendNull() {
  GrowBitmap();
  switch (type_) {
    case ValueType::kInt:
      ints_.push_back(0);
      obs::AccountAllocation(sizeof(int64_t));
      break;
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      obs::AccountAllocation(sizeof(double));
      break;
    case ValueType::kString:
      codes_.push_back(0);
      obs::AccountAllocation(sizeof(uint32_t));
      break;
    case ValueType::kNull:
      break;
  }
  MarkNull(size_);
  ++size_;
}

void Column::AppendInt(int64_t v) {
  GrowBitmap();
  ints_.push_back(v);
  obs::AccountAllocation(sizeof(int64_t));
  ++size_;
}

void Column::AppendDouble(double v) {
  GrowBitmap();
  doubles_.push_back(v);
  obs::AccountAllocation(sizeof(double));
  ++size_;
}

void Column::AppendString(const std::string& v) {
  GrowBitmap();
  codes_.push_back(Intern(v));
  obs::AccountAllocation(sizeof(uint32_t));
  ++size_;
}

uint32_t Column::Intern(const std::string& s) {
  auto it = dict_index_.find(s);
  if (it != dict_index_.end()) return it->second;
  uint32_t code = static_cast<uint32_t>(dict_.size());
  dict_.push_back(s);
  dict_index_.emplace(s, code);
  obs::AccountAllocation(s.size());
  return code;
}

void Column::GatherAppend(const Column& src, const uint32_t* rows, size_t n) {
  Reserve(size_ + n);
  if (type_ == ValueType::kString && size_ == 0 && dict_.empty()) {
    // Adopt the source dictionary so codes copy without re-interning.
    dict_ = src.dict_;
    dict_index_ = src.dict_index_;
    if (obs::MemoryAccountingActive()) {
      uint64_t bytes = n * sizeof(uint32_t);
      for (const std::string& s : dict_) bytes += s.size();
      obs::AccountAllocation(bytes);
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = rows[i];
      GrowBitmap();
      codes_.push_back(src.codes_[r]);
      if (src.IsNull(r)) MarkNull(size_);
      ++size_;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rows[i];
    if (src.IsNull(r)) {
      AppendNull();
      continue;
    }
    switch (type_) {
      case ValueType::kInt:
        AppendInt(src.ints_[r]);
        break;
      case ValueType::kDouble:
        AppendDouble(src.doubles_[r]);
        break;
      case ValueType::kString:
        AppendString(src.dict_[src.codes_[r]]);
        break;
      case ValueType::kNull:
        AppendNull();
        break;
    }
  }
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kInt:
      ints_.reserve(n);
      break;
    case ValueType::kDouble:
      doubles_.reserve(n);
      break;
    case ValueType::kString:
      codes_.reserve(n);
      break;
    case ValueType::kNull:
      break;
  }
  null_words_.reserve(NullWordsFor(n));
}

void Column::Clear() {
  if (obs::MemoryAccountingActive()) obs::AccountFree(PayloadBytes());
  size_ = 0;
  null_count_ = 0;
  ints_.clear();
  doubles_.clear();
  codes_.clear();
  dict_.clear();
  dict_index_.clear();
  null_words_.clear();
}

uint64_t Column::PayloadBytes() const {
  uint64_t bytes = ints_.size() * sizeof(int64_t) +
                   doubles_.size() * sizeof(double) +
                   codes_.size() * sizeof(uint32_t) +
                   null_words_.size() * sizeof(uint64_t);
  for (const std::string& s : dict_) bytes += s.size();
  return bytes;
}

int Column::CompareAcross(const Column& a, size_t ra, const Column& b,
                          size_t rb) {
  const bool an = a.IsNull(ra);
  const bool bn = b.IsNull(rb);
  if (an || bn) {
    if (an && bn) return 0;
    return an ? -1 : 1;
  }
  // Both non-null. Numeric types compare numerically with each other;
  // numbers sort before strings (Value::Compare's type-tag rule).
  const bool a_num =
      a.type_ == ValueType::kInt || a.type_ == ValueType::kDouble;
  const bool b_num =
      b.type_ == ValueType::kInt || b.type_ == ValueType::kDouble;
  if (a_num && b_num) {
    if (a.type_ == ValueType::kInt && b.type_ == ValueType::kInt) {
      const int64_t x = a.ints_[ra];
      const int64_t y = b.ints_[rb];
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const double x = a.type_ == ValueType::kInt
                         ? static_cast<double>(a.ints_[ra])
                         : a.doubles_[ra];
    const double y = b.type_ == ValueType::kInt
                         ? static_cast<double>(b.ints_[rb])
                         : b.doubles_[rb];
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a_num != b_num) return a_num ? -1 : 1;
  const int c = a.dict_[a.codes_[ra]].compare(b.dict_[b.codes_[rb]]);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

void Column::MarkNull(size_t row) {
  null_words_[row >> 6] |= uint64_t{1} << (row & 63);
  ++null_count_;
}

Column Column::FromRawInts(std::vector<int64_t> vals,
                           std::vector<uint64_t> nulls, size_t n) {
  Column c(ValueType::kInt);
  c.ints_ = std::move(vals);
  c.null_words_ = std::move(nulls);
  c.size_ = n;
  c.null_count_ = 0;
  for (uint64_t w : c.null_words_) c.null_count_ += __builtin_popcountll(w);
  if (obs::MemoryAccountingActive()) obs::AccountAllocation(c.PayloadBytes());
  return c;
}

Column Column::FromRawDoubles(std::vector<double> vals,
                              std::vector<uint64_t> nulls, size_t n) {
  Column c(ValueType::kDouble);
  c.doubles_ = std::move(vals);
  c.null_words_ = std::move(nulls);
  c.size_ = n;
  c.null_count_ = 0;
  for (uint64_t w : c.null_words_) c.null_count_ += __builtin_popcountll(w);
  if (obs::MemoryAccountingActive()) obs::AccountAllocation(c.PayloadBytes());
  return c;
}

Result<Column> Column::FromRawStrings(std::vector<std::string> dict,
                                      std::vector<uint32_t> codes,
                                      std::vector<uint64_t> nulls, size_t n) {
  Column c(ValueType::kString);
  c.dict_ = std::move(dict);
  c.dict_index_.reserve(c.dict_.size());
  for (uint32_t i = 0; i < c.dict_.size(); ++i) {
    if (!c.dict_index_.emplace(c.dict_[i], i).second) {
      return Status::InvalidArgument("dictionary repeats an entry: " +
                                     c.dict_[i]);
    }
  }
  c.codes_ = std::move(codes);
  c.null_words_ = std::move(nulls);
  c.size_ = n;
  c.null_count_ = 0;
  for (uint64_t w : c.null_words_) c.null_count_ += __builtin_popcountll(w);
  if (obs::MemoryAccountingActive()) obs::AccountAllocation(c.PayloadBytes());
  return c;
}

Column Column::FromRawNulls(size_t n) {
  Column c(ValueType::kNull);
  c.null_words_.assign(NullWordsFor(n), 0);
  c.size_ = 0;
  for (size_t i = 0; i < n; ++i) {
    c.null_words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  c.size_ = n;
  c.null_count_ = n;
  if (obs::MemoryAccountingActive()) obs::AccountAllocation(c.PayloadBytes());
  return c;
}

}  // namespace gea::rel
