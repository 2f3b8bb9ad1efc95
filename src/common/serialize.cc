#include "common/serialize.h"

#include <algorithm>
#include <cstring>

namespace simpush {

StatusOr<BinaryWriter> BinaryWriter::Open(const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  return BinaryWriter(file);
}

BinaryWriter::BinaryWriter(BinaryWriter&& other) noexcept
    : file_(other.file_), failed_(other.failed_) {
  other.file_ = nullptr;
}

BinaryWriter& BinaryWriter::operator=(BinaryWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    failed_ = other.failed_;
    other.file_ = nullptr;
  }
  return *this;
}

BinaryWriter::~BinaryWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void BinaryWriter::WriteMagic(const char magic[4]) { WriteBytes(magic, 4); }

void BinaryWriter::WriteBytes(const void* data, size_t bytes) {
  if (failed_ || file_ == nullptr) return;
  if (std::fwrite(data, 1, bytes, file_) != bytes) failed_ = true;
}

Status BinaryWriter::Finish() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("writer already finished");
  }
  const bool flush_failed = std::fflush(file_) != 0;
  const bool close_failed = std::fclose(file_) != 0;
  file_ = nullptr;
  if (failed_ || flush_failed || close_failed) {
    return Status::IOError("write failed");
  }
  return Status::OK();
}

StatusOr<BinaryReader> BinaryReader::Open(const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  const long size = std::fseek(file, 0, SEEK_END) == 0 ? std::ftell(file) : -1;
  if (size < 0 || std::fseek(file, 0, SEEK_SET) != 0) {
    std::fclose(file);
    return Status::IOError("cannot size for reading: " + path);
  }
  return BinaryReader(file, static_cast<uint64_t>(size));
}

BinaryReader::BinaryReader(BinaryReader&& other) noexcept
    : file_(other.file_), remaining_(other.remaining_) {
  other.file_ = nullptr;
}

BinaryReader& BinaryReader::operator=(BinaryReader&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    remaining_ = other.remaining_;
    other.file_ = nullptr;
  }
  return *this;
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status BinaryReader::ExpectMagic(const char magic[4]) {
  char found[4];
  SIMPUSH_RETURN_NOT_OK(ReadBytes(found, 4));
  if (std::memcmp(found, magic, 4) != 0) {
    return Status::IOError("bad magic tag");
  }
  return Status::OK();
}

Status BinaryReader::ReadBytes(void* data, size_t bytes) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("reader closed");
  }
  if (std::fread(data, 1, bytes, file_) != bytes) {
    return Status::IOError("unexpected end of file");
  }
  remaining_ -= std::min<uint64_t>(bytes, remaining_);
  return Status::OK();
}

bool BinaryReader::AtEof() {
  if (file_ == nullptr) return true;
  const int c = std::fgetc(file_);
  if (c == EOF) return true;
  std::ungetc(c, file_);
  return false;
}

}  // namespace simpush
