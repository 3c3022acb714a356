#include "relational/column.h"

#include <algorithm>
#include <cstring>

namespace piye {
namespace relational {

namespace {

// Popcount per validity word; __builtin_popcountll is available on both
// toolchains this repo builds with.
inline int PopCount64(uint64_t w) { return __builtin_popcountll(w); }

}  // namespace

size_t ColumnVector::CountValid() const {
  size_t n = 0;
  for (uint64_t w : validity_) n += static_cast<size_t>(PopCount64(w));
  return n;
}

void ColumnVector::Reserve(size_t n) {
  validity_.reserve((n + 63) / 64);
  switch (type_) {
    case ColumnType::kInt64:
      ints_.reserve(n);
      break;
    case ColumnType::kDouble:
      reals_.reserve(n);
      break;
    case ColumnType::kBool:
      bools_.reserve(n);
      break;
    case ColumnType::kString:
      str_offset_.reserve(n);
      str_len_.reserve(n);
      break;
  }
}

void ColumnVector::AppendValiditySlot(bool present) {
  const size_t word = size_ >> 6;
  if (word >= validity_.size()) validity_.push_back(0);
  if (present) validity_[word] |= uint64_t{1} << (size_ & 63);
  ++size_;
}

void ColumnVector::AppendNull() {
  switch (type_) {
    case ColumnType::kInt64:
      ints_.push_back(0);
      break;
    case ColumnType::kDouble:
      reals_.push_back(0.0);
      break;
    case ColumnType::kBool:
      bools_.push_back(0);
      break;
    case ColumnType::kString:
      str_offset_.push_back(0);
      str_len_.push_back(0);
      break;
  }
  AppendValiditySlot(false);
}

void ColumnVector::AppendInt(int64_t v) {
  ints_.push_back(v);
  AppendValiditySlot(true);
}

void ColumnVector::AppendReal(double v) {
  reals_.push_back(v);
  AppendValiditySlot(true);
}

void ColumnVector::AppendBool(bool v) {
  bools_.push_back(v ? 1 : 0);
  AppendValiditySlot(true);
}

void ColumnVector::AppendStr(std::string_view v) {
  str_offset_.push_back(static_cast<uint32_t>(arena_.size()));
  str_len_.push_back(static_cast<uint32_t>(v.size()));
  arena_.append(v.data(), v.size());
  AppendValiditySlot(true);
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ColumnType::kInt64:
      if (v.is_int()) {
        AppendInt(v.AsInt());
        return;
      }
      break;
    case ColumnType::kDouble:
      if (v.is_numeric()) {
        AppendReal(v.AsDouble());
        return;
      }
      break;
    case ColumnType::kBool:
      if (v.is_bool()) {
        AppendBool(v.AsBool());
        return;
      }
      break;
    case ColumnType::kString:
      if (v.is_string()) {
        AppendStr(v.AsString());
        return;
      }
      break;
  }
  AppendNull();
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ColumnType::kInt64:
      AppendInt(src.ints_[i]);
      break;
    case ColumnType::kDouble:
      AppendReal(src.reals_[i]);
      break;
    case ColumnType::kBool:
      AppendBool(src.bools_[i] != 0);
      break;
    case ColumnType::kString:
      AppendStr(src.StrAt(i));
      break;
  }
}

Value ColumnVector::ValueAt(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case ColumnType::kInt64:
      return Value::Int(ints_[i]);
    case ColumnType::kDouble:
      return Value::Real(reals_[i]);
    case ColumnType::kBool:
      return Value::Boolean(bools_[i] != 0);
    case ColumnType::kString:
      return Value::Str(std::string(StrAt(i)));
  }
  return Value::Null();
}

template <typename RowAt>
void ColumnVector::AppendRows(const ColumnVector& src, size_t n, RowAt row_at) {
  // Every buffer is resized before any pointer into it is taken, so `src`
  // may be `*this` (reads stay below `base`, writes at or above it).
  const size_t base = size_;
  switch (type_) {
    case ColumnType::kInt64: {
      ints_.resize(base + n);
      int64_t* out = ints_.data() + base;
      const int64_t* in = src.ints_.data();
      for (size_t k = 0; k < n; ++k) out[k] = in[row_at(k)];
      break;
    }
    case ColumnType::kDouble: {
      reals_.resize(base + n);
      double* out = reals_.data() + base;
      const double* in = src.reals_.data();
      for (size_t k = 0; k < n; ++k) out[k] = in[row_at(k)];
      break;
    }
    case ColumnType::kBool: {
      bools_.resize(base + n);
      uint8_t* out = bools_.data() + base;
      const uint8_t* in = src.bools_.data();
      for (size_t k = 0; k < n; ++k) out[k] = in[row_at(k)];
      break;
    }
    case ColumnType::kString: {
      // A NULL cell has length 0, so it contributes no bytes.
      size_t bytes = 0;
      for (size_t k = 0; k < n; ++k) bytes += src.str_len_[row_at(k)];
      size_t offset = arena_.size();
      arena_.resize(offset + bytes);
      str_offset_.resize(base + n);
      str_len_.resize(base + n);
      char* out = arena_.data();
      const char* in = src.arena_.data();
      for (size_t k = 0; k < n; ++k) {
        const size_t j = row_at(k);
        const uint32_t len = src.str_len_[j];
        std::memcpy(out + offset, in + src.str_offset_[j], len);
        str_offset_[base + k] = static_cast<uint32_t>(offset);
        str_len_[base + k] = len;
        offset += len;
      }
      break;
    }
  }
  validity_.resize((base + n + 63) / 64, 0);
  for (size_t k = 0; k < n;) {
    const size_t bit = (base + k) & 63;
    const size_t take = std::min<size_t>(64 - bit, n - k);
    uint64_t word = 0;
    for (size_t t = 0; t < take; ++t) {
      word |= static_cast<uint64_t>(!src.IsNull(row_at(k + t))) << (bit + t);
    }
    validity_[(base + k) >> 6] |= word;
    k += take;
  }
  size_ = base + n;
}

void ColumnVector::AppendGather(const ColumnVector& src, const uint32_t* sel,
                                size_t n) {
  AppendRows(src, n, [sel](size_t k) { return sel[k]; });
}

void ColumnVector::AppendNulls(size_t n) {
  ColumnVector null(type_);
  null.AppendNull();
  AppendRows(null, n, [](size_t) { return size_t{0}; });
}

void ColumnVector::AppendStrRun(std::string_view v, size_t n) {
  ColumnVector one(ColumnType::kString);
  one.AppendStr(v);
  AppendRows(one, n, [](size_t) { return size_t{0}; });
}

ColumnVector ColumnVector::Gather(const uint32_t* sel, size_t n) const {
  ColumnVector out(type_);
  out.AppendGather(*this, sel, n);
  return out;
}

ColumnVector ColumnVector::Prefixes(size_t keep, char mark) const {
  ColumnVector out(ColumnType::kString);
  out.size_ = size_;
  out.validity_ = validity_;
  out.str_offset_.resize(size_);
  out.str_len_.resize(size_);
  // A NULL cell has length 0, so it contributes no bytes.
  size_t bytes = 0;
  for (size_t i = 0; i < size_; ++i) {
    bytes += str_len_[i] > keep ? keep + 1 : str_len_[i];
  }
  out.arena_.resize(bytes);
  char* dst = out.arena_.data();
  size_t offset = 0;
  for (size_t i = 0; i < size_; ++i) {
    const uint32_t len = str_len_[i];
    if (len == 0) continue;  // NULL or empty: the zero slot
    const char* src = arena_.data() + str_offset_[i];
    out.str_offset_[i] = static_cast<uint32_t>(offset);
    if (len > keep) {
      std::memcpy(dst + offset, src, keep);
      dst[offset + keep] = mark;
      out.str_len_[i] = static_cast<uint32_t>(keep + 1);
    } else {
      std::memcpy(dst + offset, src, len);
      out.str_len_[i] = len;
    }
    offset += out.str_len_[i];
  }
  return out;
}

void ColumnVector::EncodeCell(size_t i, std::string* out) const {
  // Tag bytes mirror Value::Compare's type ranks: NULL < BOOL < numeric <
  // STRING. Both numeric types share one tag so an INT64 key and a DOUBLE
  // key with the same AsDouble() collide, exactly like Compare orders them
  // equal.
  if (IsNull(i)) {
    out->push_back('\x00');
    return;
  }
  switch (type_) {
    case ColumnType::kBool:
      out->push_back('\x01');
      out->push_back(bools_[i] ? '\x01' : '\x00');
      return;
    case ColumnType::kInt64:
    case ColumnType::kDouble: {
      out->push_back('\x02');
      double d = type_ == ColumnType::kInt64 ? static_cast<double>(ints_[i])
                                             : reals_[i];
      if (d == 0.0) d = 0.0;  // canonicalize -0.0 (Compare treats them equal)
      char buf[sizeof(double)];
      std::memcpy(buf, &d, sizeof(double));
      out->append(buf, sizeof(double));
      return;
    }
    case ColumnType::kString: {
      out->push_back('\x03');
      const std::string_view s = StrAt(i);
      const uint32_t len = static_cast<uint32_t>(s.size());
      char buf[sizeof(uint32_t)];
      std::memcpy(buf, &len, sizeof(uint32_t));
      out->append(buf, sizeof(uint32_t));
      out->append(s.data(), s.size());
      return;
    }
  }
}

size_t ColumnVector::ApproxBytes() const {
  size_t bytes = sizeof(ColumnVector);
  bytes += validity_.capacity() * sizeof(uint64_t);
  bytes += ints_.capacity() * sizeof(int64_t);
  bytes += reals_.capacity() * sizeof(double);
  bytes += bools_.capacity() * sizeof(uint8_t);
  bytes += str_offset_.capacity() * sizeof(uint32_t);
  bytes += str_len_.capacity() * sizeof(uint32_t);
  bytes += arena_.capacity();
  return bytes;
}

}  // namespace relational
}  // namespace piye
