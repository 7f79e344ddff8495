#ifndef GEA_REL_COLUMN_H_
#define GEA_REL_COLUMN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "obs/resource.h"
#include "rel/value.h"

namespace gea::rel {

/// Physical storage for one table column: a typed contiguous vector plus a
/// null bitmap. This is the physical half of the logical/physical split —
/// `Table` keeps the row-oriented `Schema`/`Row` API while cells live here.
///
/// Layout per declared type:
///   kInt    -> std::vector<int64_t>   (null slots hold 0)
///   kDouble -> std::vector<double>    (null slots hold 0.0)
///   kString -> dictionary-coded: vector<uint32_t> codes into a per-column
///              string dictionary (null slots hold code 0). Tag names and
///              other low-cardinality identifiers dedupe to one string each.
///   kNull   -> no payload; every slot is NULL.
///
/// The null bitmap packs one bit per row into uint64 words, bit set = NULL.
/// Payload slots for NULL rows are zero-filled so kernels can load them
/// unconditionally and mask afterwards.
///
/// Growth paths charge the thread's bound obs::MemoryAccount (per-query
/// memory accounting on the serve path); when none is bound each charge
/// is a thread-local load and a branch. Accounted bytes are the logical
/// payload — typed vectors, dictionary strings and the null bitmap, per
/// PayloadBytes() — not allocator capacity, so alloc and free stay
/// symmetric. The dictionary hash index is not counted.
class Column {
 public:
  explicit Column(ValueType type) : type_(type) {}

  ValueType type() const { return type_; }
  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }

  bool IsNull(size_t row) const {
    return (null_words_[row >> 6] >> (row & 63)) & 1;
  }

  /// Typed payload accessors. Reading a NULL slot returns the zero fill;
  /// callers that care must check IsNull first.
  int64_t IntAt(size_t row) const { return ints_[row]; }
  double DoubleAt(size_t row) const { return doubles_[row]; }
  uint32_t CodeAt(size_t row) const { return codes_[row]; }
  const std::string& StringAt(size_t row) const { return dict_[codes_[row]]; }

  /// Materializes one cell as a boxed Value (NULL-aware).
  Value GetValue(size_t row) const;

  /// Appends a value. Ints and doubles coerce to the column's numeric type
  /// when they differ; a non-NULL value whose type cannot be represented is
  /// stored as NULL (callers that need strict typing validate upstream, as
  /// Table::AppendRow does).
  void Append(const Value& v);
  void AppendNull();
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(const std::string& v);

  /// Appends rows `rows[0..n)` of `src` (same declared type). When this
  /// column is empty and `src` is a string column, the dictionary is adopted
  /// wholesale so codes copy without re-interning.
  void GatherAppend(const Column& src, const uint32_t* rows, size_t n);

  void Reserve(size_t n);
  void Clear();

  /// Bytes of logical payload held: typed vectors, dictionary strings
  /// and the null bitmap (the dictionary hash index is excluded).
  uint64_t PayloadBytes() const;

  /// Three-way comparison of two rows of this column under Value::Compare
  /// semantics (NULL==NULL, NULL first). Dictionary codes are unordered, so
  /// string rows compare through the dictionary.
  int CompareRows(size_t a, size_t b) const {
    return CompareAcross(*this, a, *this, b);
  }
  static int CompareAcross(const Column& a, size_t ra, const Column& b,
                           size_t rb);

  /// Raw views for batch kernels. Payload pointers are null when the column
  /// holds no rows of that type.
  const int64_t* int_data() const { return ints_.data(); }
  const double* double_data() const { return doubles_.data(); }
  const uint32_t* code_data() const { return codes_.data(); }
  const std::vector<std::string>& dict() const { return dict_; }
  const uint64_t* null_words() const { return null_words_.data(); }
  size_t null_word_count() const { return null_words_.size(); }
  static size_t NullWordsFor(size_t rows) { return (rows + 63) / 64; }

  /// Interns `s`, returning its dictionary code (string columns only).
  uint32_t Intern(const std::string& s);

  /// Bulk constructors for the binary codec: adopt decoded vectors directly.
  /// `nulls` is the packed bitmap sized NullWordsFor(n); payloads must be
  /// zero-filled on null slots (re-encode depends on it). A dictionary
  /// that repeats an entry fails InvalidArgument: interning keeps entries
  /// distinct, and equal cells must share one code.
  static Column FromRawInts(std::vector<int64_t> vals,
                            std::vector<uint64_t> nulls, size_t n);
  static Column FromRawDoubles(std::vector<double> vals,
                               std::vector<uint64_t> nulls, size_t n);
  static Result<Column> FromRawStrings(std::vector<std::string> dict,
                                       std::vector<uint32_t> codes,
                                       std::vector<uint64_t> nulls, size_t n);
  static Column FromRawNulls(size_t n);

 private:
  void MarkNull(size_t row);
  void GrowBitmap() {
    if (null_words_.size() < NullWordsFor(size_ + 1)) {
      null_words_.push_back(0);
      obs::AccountAllocation(sizeof(uint64_t));
    }
  }

  ValueType type_;
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> codes_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, uint32_t> dict_index_;
  std::vector<uint64_t> null_words_;
};

}  // namespace gea::rel

#endif  // GEA_REL_COLUMN_H_
