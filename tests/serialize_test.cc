// Tests for the BinaryWriter/BinaryReader substrate, including failure
// injection (truncation, bad magic, corrupt counts).

#include "common/serialize.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace simpush {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SerializeTest, RoundTripScalarsAndVectors) {
  const std::string path = TempPath("serialize_roundtrip.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->WriteMagic("TST1");
    writer->Write<uint32_t>(42);
    writer->Write<double>(3.5);
    writer->WriteVector(std::vector<uint64_t>{1, 2, 3});
    writer->WriteVector(std::vector<float>{});
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->ExpectMagic("TST1").ok());
  uint32_t int_value = 0;
  double double_value = 0;
  std::vector<uint64_t> longs;
  std::vector<float> floats = {9.0f};  // must be cleared by read
  ASSERT_TRUE(reader->Read(&int_value).ok());
  ASSERT_TRUE(reader->Read(&double_value).ok());
  ASSERT_TRUE(reader->ReadVector(&longs).ok());
  ASSERT_TRUE(reader->ReadVector(&floats).ok());
  EXPECT_EQ(int_value, 42u);
  EXPECT_DOUBLE_EQ(double_value, 3.5);
  EXPECT_EQ(longs, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(floats.empty());
  EXPECT_TRUE(reader->AtEof());
  std::filesystem::remove(path);
}

TEST(SerializeTest, BadMagicRejected) {
  const std::string path = TempPath("serialize_badmagic.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->WriteMagic("AAAA");
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto status = reader->ExpectMagic("BBBB");
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  std::filesystem::remove(path);
}

TEST(SerializeTest, TruncatedFileDetected) {
  const std::string path = TempPath("serialize_truncated.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->Write<uint64_t>(100);  // vector count promising 100 elements
    writer->Write<uint32_t>(7);    // ... but only 4 bytes of payload
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<uint32_t> values;
  auto status = reader->ReadVector(&values);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  std::filesystem::remove(path);
}

TEST(SerializeTest, InsaneVectorCountRejected) {
  const std::string path = TempPath("serialize_insane.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->Write<uint64_t>(~0ULL);  // 2^64-1 "elements"
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<uint64_t> values;
  auto status = reader->ReadVector(&values);
  EXPECT_EQ(status.code(), StatusCode::kIOError) << "must not allocate";
  std::filesystem::remove(path);
}

// A count that passes any fixed bound but exceeds what the file holds:
// 2^31 eight-byte elements (16 GiB) promised by a 12-byte file. The
// read must fail before it allocates.
TEST(SerializeTest, VectorCountBeyondFileSizeRejected) {
  const std::string path = TempPath("serialize_oversized.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->WriteMagic("TST1");
    writer->Write<uint64_t>(1ULL << 31);
    ASSERT_TRUE(writer->Finish().ok());
  }
  ASSERT_EQ(std::filesystem::file_size(path), 12u);
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->ExpectMagic("TST1").ok());
  std::vector<uint64_t> values;
  EXPECT_EQ(reader->ReadVector(&values).code(), StatusCode::kIOError);
  EXPECT_TRUE(values.empty());
  std::filesystem::remove(path);
}

TEST(SerializeTest, OpenMissingFileFails) {
  auto reader = BinaryReader::Open(TempPath("does_not_exist_xyz.bin"));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
}

TEST(SerializeTest, OpenUnwritablePathFails) {
  auto writer = BinaryWriter::Open("/nonexistent_dir_xyz/file.bin");
  EXPECT_FALSE(writer.ok());
}

TEST(SerializeTest, EmptyFileFailsMagicCheck) {
  const std::string path = TempPath("serialize_empty.bin");
  { std::fclose(std::fopen(path.c_str(), "wb")); }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->AtEof());
  EXPECT_FALSE(reader->ExpectMagic("TST1").ok());
  std::filesystem::remove(path);
}

TEST(SerializeTest, DoubleFinishIsFailedPrecondition) {
  const std::string path = TempPath("serialize_double_finish.bin");
  auto writer = BinaryWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(writer->Finish().code(), StatusCode::kFailedPrecondition);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace simpush
