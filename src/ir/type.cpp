#include "ir/type.hpp"

namespace onebit::ir {

std::string_view typeName(Type t) noexcept {
  switch (t) {
    case Type::Void: return "void";
    case Type::I64: return "i64";
    case Type::F64: return "f64";
  }
  return "?";
}

}  // namespace onebit::ir
