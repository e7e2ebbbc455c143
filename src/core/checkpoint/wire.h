// Little-endian byte codec for checkpoint snapshots (DESIGN.md §16).
//
// ByteWriter and ByteReader share one overloaded field vocabulary, so each
// section's wire layout is written once, as a field list templated on the
// codec:
//
//   template <typename Io, typename State>
//   Status ThingFields(Io& io, State& s) {
//     SDB_RETURN_IF_ERROR(io.Fields(s.count, s.elapsed));
//     return io.Seq(s.items, 9, "item count", [&io](auto& item) {
//       return io.Field(item.when);
//     });
//   }
//
// Encode runs the list with a writer over a const state (every call returns
// Ok) and takes the bytes with Finish; decode runs it with a reader over a
// fresh state and Finish rejects trailing bytes. Every read is
// truncation-checked, so a torn or hostile payload is rejected with
// kInvalidArgument instead of undefined behaviour.
//
// Wire forms:
//   bool                      1 byte, 0 or 1 (any non-zero reads as true)
//   unsigned integer          sizeof(T) bytes
//   signed integer            8 bytes, sign-extended
//   double, Quantity          8 bytes, IEEE-754 bits (a Quantity's raw SI value)
//   std::optional<T>          bool has, then T (T{} when absent)
//   std::vector<double/bool>  u64 count, then the elements
//   Enum(v, max, what)        1 byte; the reader rejects a byte above max
//   Seq(v, k, what[, f])      u64 count, then f(element) for each (Field
//                             when f is omitted); the reader rejects a count
//                             above remaining()/k (k = the element's
//                             minimum size) before it allocates anything
#ifndef SRC_CORE_CHECKPOINT_WIRE_H_
#define SRC_CORE_CHECKPOINT_WIRE_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/util/check.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {
namespace checkpoint {

// size_t fields (counts, battery indices) are 8 bytes on the wire.
static_assert(sizeof(size_t) == 8);

// Bytes one scalar occupies on the wire.
template <typename T>
inline constexpr size_t kWireWidth =
    std::is_same_v<T, bool> ? 1 : (std::is_signed_v<T> ? 8 : sizeof(T));

template <typename T>
concept WireScalar = std::is_integral_v<T> || std::is_same_v<T, double>;

class ByteWriter {
 public:
  static constexpr bool kReads = false;

  // Put is the writer's half of Field: the same overloads, infallible, so
  // the snapshot container header and Fields write without a Status per
  // field.
  template <WireScalar T>
  void Put(T v) {
    uint64_t raw;
    if constexpr (std::is_same_v<T, double>) {
      raw = std::bit_cast<uint64_t>(v);
    } else {
      raw = static_cast<uint64_t>(v);  // Signed values sign-extend.
    }
    for (size_t i = 0; i < kWireWidth<T>; ++i) {
      out_.push_back(static_cast<uint8_t>(raw >> (8 * i)));
    }
  }
  template <int L, int M, int T, int I, int K>
  void Put(const Quantity<L, M, T, I, K>& q) {
    Put(q.value());
  }
  template <typename T>
  void Put(const std::optional<T>& v) {
    Put(v.has_value());
    Put(v.has_value() ? *v : T{});
  }
  template <typename T>
  void Put(const std::vector<T>& v) {
    Put(static_cast<uint64_t>(v.size()));
    for (const T& x : v) {
      Put(x);
    }
  }
  void PutBytes(const uint8_t* data, size_t size) { out_.insert(out_.end(), data, data + size); }

  template <typename T>
  Status Field(const T& v) {
    Put(v);
    return Status::Ok();
  }
  template <typename... T>
  Status Fields(const T&... v) {
    (Put(v), ...);
    return Status::Ok();
  }

  template <typename E>
  Status Enum(E v, E /*max*/, const char* /*what*/) {
    return Field(static_cast<uint8_t>(v));
  }

  template <typename T, typename F>
  Status Seq(const std::vector<T>& v, size_t /*min_bytes*/, const char* /*what*/, F&& element) {
    Put(static_cast<uint64_t>(v.size()));
    for (const T& x : v) {
      SDB_RETURN_IF_ERROR(element(x));
    }
    return Status::Ok();
  }
  // A sequence of plain fields.
  template <typename T>
  Status Seq(const std::vector<T>& v, size_t /*min_bytes*/, const char* /*what*/) {
    return Field(v);
  }

  // The encoded section once its field list has run.
  std::vector<uint8_t> Finish(const Status& fields) {
    SDB_CHECK(fields.ok());
    return std::move(out_);
  }

  const std::vector<uint8_t>& bytes() const { return out_; }
  std::vector<uint8_t> TakeBytes() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  std::vector<uint8_t> out_;
};

class ByteReader {
 public:
  static constexpr bool kReads = true;

  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

  template <WireScalar T>
  Status Field(T& v) {
    constexpr size_t width = kWireWidth<T>;
    SDB_RETURN_IF_ERROR(Need(width));
    uint64_t raw = 0;
    for (size_t i = 0; i < width; ++i) {
      raw |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    if constexpr (std::is_same_v<T, bool>) {
      v = raw != 0;
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(raw);
    } else if constexpr (std::is_signed_v<T>) {
      v = static_cast<T>(static_cast<int64_t>(raw));
    } else {
      v = static_cast<T>(raw);
    }
    return Status::Ok();
  }
  template <int L, int M, int T, int I, int K>
  Status Field(Quantity<L, M, T, I, K>& q) {
    double raw = 0.0;
    SDB_RETURN_IF_ERROR(Field(raw));
    q = Quantity<L, M, T, I, K>(raw);
    return Status::Ok();
  }
  template <typename T>
  Status Field(std::optional<T>& v) {
    bool has = false;
    T value{};
    SDB_RETURN_IF_ERROR(Field(has));
    SDB_RETURN_IF_ERROR(Field(value));
    v = has ? std::optional<T>(value) : std::nullopt;
    return Status::Ok();
  }
  Status Field(std::vector<double>& v) { return Seq(v, 8, "vector length"); }
  Status Field(std::vector<bool>& v) {
    std::vector<uint8_t> bytes;
    SDB_RETURN_IF_ERROR(Seq(bytes, 1, "vector length"));
    v.assign(bytes.begin(), bytes.end());
    return Status::Ok();
  }

  // Field over each argument, in order; stops at the first error.
  template <typename T, typename... Rest>
  Status Fields(T& first, Rest&... rest) {
    SDB_RETURN_IF_ERROR(Field(first));
    if constexpr (sizeof...(rest) == 0) {
      return Status::Ok();
    } else {
      return Fields(rest...);
    }
  }

  // "checkpoint: <what> enum byte out of range" above `max`.
  template <typename E>
  Status Enum(E& v, E max, const char* what) {
    uint8_t byte = 0;
    SDB_RETURN_IF_ERROR(Field(byte));
    if (byte > static_cast<uint8_t>(max)) {
      return InvalidArgumentError(std::string("checkpoint: ") + what +
                                  " enum byte out of range");
    }
    v = static_cast<E>(byte);
    return Status::Ok();
  }

  // "checkpoint: <what> exceeds payload" when the count cannot fit.
  template <typename T, typename F>
  Status Seq(std::vector<T>& v, size_t min_bytes, const char* what, F&& element) {
    uint64_t count = 0;
    SDB_RETURN_IF_ERROR(Field(count));
    if (count > remaining() / min_bytes) {
      return InvalidArgumentError(std::string("checkpoint: ") + what + " exceeds payload");
    }
    v.assign(static_cast<size_t>(count), T{});
    for (T& x : v) {
      SDB_RETURN_IF_ERROR(element(x));
    }
    return Status::Ok();
  }
  template <typename T>
  Status Seq(std::vector<T>& v, size_t min_bytes, const char* what) {
    return Seq(v, min_bytes, what, [this](T& x) { return Field(x); });
  }

  Status Skip(size_t n) {
    SDB_RETURN_IF_ERROR(Need(n));
    pos_ += n;
    return Status::Ok();
  }

  // The decoded section once its field list has run: all payload must be
  // consumed, since trailing garbage marks a corrupt section.
  template <typename State>
  StatusOr<State> Finish(const Status& fields, State& state) const {
    if (!fields.ok()) {
      return fields;
    }
    if (remaining() != 0) {
      return InvalidArgumentError("checkpoint: " + std::to_string(remaining()) +
                                  " trailing byte(s) after section payload");
    }
    return std::move(state);
  }

 private:
  Status Need(size_t n) const {
    if (remaining() < n) {
      return InvalidArgumentError("checkpoint: truncated payload (need " +
                                  std::to_string(n) + " byte(s), have " +
                                  std::to_string(remaining()) + ")");
    }
    return Status::Ok();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace checkpoint
}  // namespace sdb

#endif  // SRC_CORE_CHECKPOINT_WIRE_H_
