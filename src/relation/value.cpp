#include "relation/value.h"

#include <functional>
#include <sstream>

#include "util/hash.h"

namespace fdevolve::relation {

bool Value::MatchesType(DataType t) const {
  if (is_null()) return true;
  switch (t) {
    case DataType::kInt64:
      return is_int();
    case DataType::kDouble:
      return is_double();
    case DataType::kString:
      return is_string();
  }
  return false;
}

bool Value::operator<(const Value& other) const {
  // variant's operator< orders first by index (monostate < int64 < double
  // < string), then by value, which is exactly the documented order.
  return data_ < other.data_;
}

uint64_t Value::Hash() const {
  switch (data_.index()) {
    case 0:
      return 0x9ae16a3b2f90404fULL;  // arbitrary fixed tag for NULL
    case 1:
      return util::Mix64(static_cast<uint64_t>(std::get<int64_t>(data_)));
    case 2: {
      double d = std::get<double>(data_);
      if (d == 0.0) d = 0.0;  // -0.0 == +0.0, so both hash as +0.0
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return util::Mix64(bits ^ 0x517cc1b727220a95ULL);
    }
    default: {
      const std::string& s = std::get<std::string>(data_);
      return std::hash<std::string>{}(s) ^ 0x2545f4914f6cdd1dULL;
    }
  }
}

std::string Value::ToString() const {
  switch (data_.index()) {
    case 0:
      return "NULL";
    case 1:
      return std::to_string(std::get<int64_t>(data_));
    case 2: {
      std::ostringstream os;
      os << std::get<double>(data_);
      return os.str();
    }
    default:
      return std::get<std::string>(data_);
  }
}

}  // namespace fdevolve::relation
