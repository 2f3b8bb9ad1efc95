// Minimal binary serialization over stdio with Status-based error
// reporting. Used by the SPG1 graph format's siblings: baseline index
// persistence (READS/SLING) and any future on-disk artifacts.
//
// All values are written in host byte order (the library targets a
// single machine; indexes are scratch artifacts, not interchange files)
// with fixed-width types only — never size_t.

#ifndef SIMPUSH_COMMON_SERIALIZE_H_
#define SIMPUSH_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace simpush {

/// Streams fixed-width values and vectors to a file. Any failed write
/// latches an error; Finish() reports the first failure.
class BinaryWriter {
 public:
  /// Opens `path` for binary writing (truncates).
  static StatusOr<BinaryWriter> Open(const std::string& path);

  BinaryWriter(BinaryWriter&& other) noexcept;
  BinaryWriter& operator=(BinaryWriter&& other) noexcept;
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;
  ~BinaryWriter();

  /// Writes a 4-byte magic tag.
  void WriteMagic(const char magic[4]);

  /// Writes one trivially-copyable value.
  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));
  }

  /// Writes a u64 element count followed by the raw elements.
  template <typename T>
  void WriteVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write<uint64_t>(values.size());
    if (!values.empty()) WriteBytes(values.data(), values.size() * sizeof(T));
  }

  /// Flushes and closes; returns the first error encountered, if any.
  Status Finish();

 private:
  explicit BinaryWriter(FILE* file) : file_(file) {}
  void WriteBytes(const void* data, size_t bytes);

  FILE* file_ = nullptr;
  bool failed_ = false;
};

/// Reads values written by BinaryWriter, validating as it goes.
class BinaryReader {
 public:
  /// Opens `path` for binary reading.
  static StatusOr<BinaryReader> Open(const std::string& path);

  BinaryReader(BinaryReader&& other) noexcept;
  BinaryReader& operator=(BinaryReader&& other) noexcept;
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;
  ~BinaryReader();

  /// Reads and checks a 4-byte magic tag.
  Status ExpectMagic(const char magic[4]);

  /// Reads one trivially-copyable value.
  template <typename T>
  Status Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(value, sizeof(T));
  }

  /// Reads a vector written by WriteVector. A count larger than the
  /// bytes left in the file can hold is an IOError, so a corrupt count
  /// never allocates more than the file's size.
  template <typename T>
  Status ReadVector(std::vector<T>* values) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    SIMPUSH_RETURN_NOT_OK(Read(&count));
    if (count > remaining_ / sizeof(T)) {
      return Status::IOError("vector length exceeds the bytes left");
    }
    values->resize(count);
    if (count == 0) return Status::OK();
    return ReadBytes(values->data(), count * sizeof(T));
  }

  /// True when the stream is exactly exhausted.
  bool AtEof();

 private:
  BinaryReader(FILE* file, uint64_t size) : file_(file), remaining_(size) {}
  Status ReadBytes(void* data, size_t bytes);

  FILE* file_ = nullptr;
  uint64_t remaining_ = 0;  // Bytes not yet read.
};

}  // namespace simpush

#endif  // SIMPUSH_COMMON_SERIALIZE_H_
