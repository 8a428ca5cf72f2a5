// Value types of the onebit intermediate representation.
//
// The IR is deliberately small: a 64-bit integer type, a 64-bit float type,
// and void for instructions that produce no value. Register values are
// stored as raw 64-bit words; the type determines interpretation (and the
// register width seen by the bit-flip fault model).
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace onebit::ir {

enum class Type : std::uint8_t {
  Void,
  I64,  ///< signed 64-bit integer (also used for addresses and booleans)
  F64,  ///< IEEE-754 double
};

/// Bit width of a register holding a value of this type (0 for Void).
constexpr unsigned bitWidth(Type t) noexcept {
  return t == Type::Void ? 0U : 64U;
}

std::string_view typeName(Type t) noexcept;

/// Reinterpret helpers between the raw register word and typed values.
constexpr std::int64_t asI64(std::uint64_t raw) noexcept {
  return static_cast<std::int64_t>(raw);
}
constexpr std::uint64_t fromI64(std::int64_t v) noexcept {
  return static_cast<std::uint64_t>(v);
}
constexpr double asF64(std::uint64_t raw) noexcept {
  return std::bit_cast<double>(raw);
}
constexpr std::uint64_t fromF64(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}

}  // namespace onebit::ir
