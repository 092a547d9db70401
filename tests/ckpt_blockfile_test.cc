// Checkpoint block files (src/ckpt/blockfile, DESIGN.md §16): every payload
// kind round-trips bit-exactly, writes are atomic (temp + rename), and a
// reader faced with corruption, truncation, a foreign file, a missing file
// or a checksum-valid block with hostile counts gets a clean nullopt —
// never silent garbage, never an exception.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/blockfile.h"
#include "common/hash.h"
#include "engine/partitioner.h"

namespace chopper {
namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

engine::Partition make_part(std::uint64_t seed, std::size_t n) {
  engine::Partition p;
  for (std::size_t i = 0; i < n; ++i) {
    engine::Record r;
    r.key = seed * 1000 + i;
    r.values = {static_cast<double>(i) * 0.5, static_cast<double>(seed)};
    p.push(std::move(r));
  }
  return p;
}

std::vector<engine::Record> rows(const engine::Partition& p) {
  std::vector<engine::Record> out;
  engine::Record scratch;
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.materialize_into(i, scratch);
    out.push_back(scratch);
  }
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
}

TEST(CkptBlockfile, ResultRoundTrip) {
  const std::string path = temp_path("result.blk");
  std::vector<engine::Partition> parts;
  parts.push_back(make_part(1, 17));
  parts.push_back(make_part(2, 0));  // empty partition survives too
  parts.push_back(make_part(3, 5));
  ASSERT_TRUE(ckpt::write_result_block(path, parts, /*sync=*/false));

  const auto back = ckpt::read_result_block(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(rows((*back)[i]), rows(parts[i])) << "partition " << i;
  }
}

TEST(CkptBlockfile, ShuffleRoundTrip) {
  const std::string path = temp_path("shuffle.blk");
  engine::ShuffleOutput so;
  so.partitioner = std::make_shared<engine::HashPartitioner>(3);
  so.num_map_tasks = 2;
  so.buckets.resize(2);
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t r = 0; r < 3; ++r) {
      so.buckets[m].push_back(make_part(10 * m + r, 4 + r));
    }
  }
  so.map_node = {0, 1};
  so.row_sum = {0xabcdULL, 0x1234ULL};
  so.total_bytes = 4096;
  ASSERT_TRUE(ckpt::write_shuffle_block(path, /*consumer=*/7, so,
                                        /*sync=*/false));

  const auto back = ckpt::read_shuffle_block(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->consumer, 7u);
  EXPECT_EQ(back->so.num_map_tasks, 2u);
  EXPECT_EQ(back->so.map_node, so.map_node);
  EXPECT_EQ(back->so.row_sum, so.row_sum);
  EXPECT_EQ(back->so.total_bytes, so.total_bytes);
  ASSERT_NE(back->so.partitioner, nullptr);
  EXPECT_EQ(back->so.partitioner->num_partitions(), 3u);
  ASSERT_EQ(back->so.buckets.size(), 2u);
  for (std::size_t m = 0; m < 2; ++m) {
    ASSERT_EQ(back->so.buckets[m].size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(rows(back->so.buckets[m][r]), rows(so.buckets[m][r]));
    }
  }
}

TEST(CkptBlockfile, CacheRoundTrip) {
  const std::string path = temp_path("cache.blk");
  engine::CachedDataset cd;
  cd.partitions.push_back(make_part(5, 9));
  cd.partitions.push_back(make_part(6, 3));
  cd.placement = {1, 0};
  cd.available = {1, 1};
  cd.sums = {0x11ULL, 0x22ULL};
  ASSERT_TRUE(ckpt::write_cache_block(path, /*ordinal=*/2, cd,
                                      /*sync=*/false));

  const auto back = ckpt::read_cache_block(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ordinal, 2u);
  ASSERT_EQ(back->cd.partitions.size(), 2u);
  EXPECT_EQ(rows(back->cd.partitions[0]), rows(cd.partitions[0]));
  EXPECT_EQ(rows(back->cd.partitions[1]), rows(cd.partitions[1]));
  EXPECT_EQ(back->cd.placement, cd.placement);
  EXPECT_EQ(back->cd.sums, cd.sums);
}

TEST(CkptBlockfile, AtomicWriteLeavesNoTempFile) {
  const std::string path = temp_path("atomic.blk");
  ASSERT_TRUE(
      ckpt::write_result_block(path, {make_part(1, 3)}, /*sync=*/false));
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr) << "temp file must not survive the rename";
  if (tmp != nullptr) std::fclose(tmp);
}

TEST(CkptBlockfile, CorruptionRejected) {
  const std::string path = temp_path("corrupt.blk");
  ASSERT_TRUE(
      ckpt::write_result_block(path, {make_part(4, 32)}, /*sync=*/false));
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 32u);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  spit(path, bytes);
  EXPECT_FALSE(ckpt::read_result_block(path).has_value());
}

TEST(CkptBlockfile, TruncationRejected) {
  const std::string path = temp_path("truncated.blk");
  ASSERT_TRUE(
      ckpt::write_result_block(path, {make_part(4, 32)}, /*sync=*/false));
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 8u);
  spit(path, bytes.substr(0, bytes.size() - 5));
  EXPECT_FALSE(ckpt::read_result_block(path).has_value());
}

TEST(CkptBlockfile, ForeignAndMissingFilesRejected) {
  const std::string path = temp_path("foreign.blk");
  spit(path, "definitely not a CHOPBLK1 file\n");
  EXPECT_FALSE(ckpt::read_result_block(path).has_value());
  EXPECT_FALSE(ckpt::read_shuffle_block(path).has_value());
  EXPECT_FALSE(ckpt::read_cache_block(path).has_value());
  EXPECT_FALSE(
      ckpt::read_result_block(temp_path("no_such.blk")).has_value());
}

TEST(CkptBlockfile, KindConfusionRejected) {
  // A valid cache block must not decode as a shuffle or result block: the
  // kind field is part of the checked prefix.
  const std::string path = temp_path("kind.blk");
  engine::CachedDataset cd;
  cd.partitions.push_back(make_part(7, 4));
  cd.placement = {0};
  ASSERT_TRUE(ckpt::write_cache_block(path, 0, cd, /*sync=*/false));
  EXPECT_TRUE(ckpt::read_cache_block(path).has_value());
  EXPECT_FALSE(ckpt::read_shuffle_block(path).has_value());
  EXPECT_FALSE(ckpt::read_result_block(path).has_value());
}

// ---------------------------------------------------------------------------
// Checksum-valid blocks with hostile contents: the decoder itself must
// bound every count by the bytes left before allocating.

/// Recompute the trailing checksum after editing a block's bytes, so the
/// decoder (not the checksum) has to reject the edit.
std::string reseal(std::string file) {
  file.resize(file.size() - 8);
  common::Checksum64 sum;
  sum.update_bytes(file.data(), file.size());
  const std::uint64_t digest = sum.digest();
  file.append(reinterpret_cast<const char*>(&digest), 8);
  return file;
}

void put_u64_at(std::string& file, std::size_t offset, std::uint64_t v) {
  std::memcpy(file.data() + offset, &v, 8);
}

/// Encoded size of one partition: byte count + four length-prefixed arrays.
std::size_t encoded_size(const engine::Partition& p) {
  return 8 + (8 + 8 * p.size()) + (8 + 4 * p.size()) + (8 + 8 * p.size()) +
         (8 + 8 * p.values_size());
}

/// A 2 x 3 shuffle block, plus the file offset of its bucket count `r`
/// (the u64 right before the first encoded partition).
struct ShuffleFixture {
  std::string path;
  std::string file;
  std::size_t r_offset = 0;
  std::size_t rows_bytes = 0;  ///< bytes of all encoded partitions
  std::size_t last_part_bytes = 0;
};

ShuffleFixture write_shuffle_fixture(const std::string& leaf) {
  ShuffleFixture f;
  f.path = temp_path(leaf);
  engine::ShuffleOutput so;
  so.partitioner = std::make_shared<engine::HashPartitioner>(3);
  so.num_map_tasks = 2;
  so.map_node = {0, 1};
  so.buckets.resize(2);
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t r = 0; r < 3; ++r) {
      so.buckets[m].push_back(make_part(10 * m + r, 4 + r));
      f.rows_bytes += encoded_size(so.buckets[m].back());
    }
  }
  f.last_part_bytes = encoded_size(so.buckets[1][2]);
  EXPECT_TRUE(ckpt::write_shuffle_block(f.path, 0, so, /*sync=*/false));
  f.file = slurp(f.path);
  f.r_offset = f.file.size() - 8 - f.rows_bytes - 8;
  return f;
}

std::optional<engine::RestoredShuffle> read_shuffle_no_throw(
    const std::string& path) {
  std::optional<engine::RestoredShuffle> out;
  EXPECT_NO_THROW(out = ckpt::read_shuffle_block(path));
  return out;
}

TEST(CkptBlockfile, ShuffleFixtureDecodes) {
  // Guards the fixture's offset arithmetic the hostile tests rely on.
  ShuffleFixture f = write_shuffle_fixture("shuffle_fixture.blk");
  std::uint64_t r = 0;
  std::memcpy(&r, f.file.data() + f.r_offset, 8);
  EXPECT_EQ(r, 3u);
  EXPECT_TRUE(read_shuffle_no_throw(f.path).has_value());
}

TEST(CkptBlockfile, ShuffleHostileBucketCountRejected) {
  ShuffleFixture f = write_shuffle_fixture("shuffle_hostile_r.blk");
  for (const std::uint64_t r :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    std::string bytes = f.file;
    put_u64_at(bytes, f.r_offset, r);
    spit(f.path, reseal(bytes));
    EXPECT_FALSE(read_shuffle_no_throw(f.path).has_value()) << "r=" << r;
  }
}

TEST(CkptBlockfile, ShuffleSplicedCountRejected) {
  // r alone fits the bytes left (one row's worth of minimal partitions),
  // but m x r does not: the bound must cover the whole grid.
  ShuffleFixture f = write_shuffle_fixture("shuffle_spliced.blk");
  std::string bytes = f.file;
  put_u64_at(bytes, f.r_offset, f.rows_bytes / (5 * 8));
  spit(f.path, reseal(bytes));
  EXPECT_FALSE(read_shuffle_no_throw(f.path).has_value());
}

TEST(CkptBlockfile, ShuffleTruncatedRowRejected) {
  // The last partition loses its tail; the checksum is re-sealed so only
  // the decoder can notice the short row.
  ShuffleFixture f = write_shuffle_fixture("shuffle_truncated.blk");
  std::string bytes = f.file;
  bytes.erase(bytes.size() - 8 - f.last_part_bytes / 2, f.last_part_bytes / 2);
  spit(f.path, reseal(bytes));
  EXPECT_FALSE(read_shuffle_no_throw(f.path).has_value());
}

TEST(CkptBlockfile, ResultHostileCountRejected) {
  const std::string path = temp_path("result_hostile.blk");
  ASSERT_TRUE(
      ckpt::write_result_block(path, {make_part(1, 3)}, /*sync=*/false));
  std::string bytes = slurp(path);
  put_u64_at(bytes, 16, std::uint64_t{1} << 60);  // count follows the header
  spit(path, reseal(bytes));
  std::optional<std::vector<engine::Partition>> out;
  EXPECT_NO_THROW(out = ckpt::read_result_block(path));
  EXPECT_FALSE(out.has_value());
}

}  // namespace
}  // namespace chopper
