#include "data/io.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "data/sparse_text.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

PointSet MixedPoints() {
  PointSet pts = GenerateUniformCube(20, 3, /*seed=*/1);
  SparseTextOptions opts;
  opts.n = 20;
  opts.vocab_size = 100;
  opts.min_terms = 2;
  opts.max_terms = 8;
  opts.seed = 2;
  PointSet docs = GenerateSparseTextDataset(opts);
  pts.insert(pts.end(), docs.begin(), docs.end());
  return pts;
}

TEST(IoTextTest, PointLineRoundTripDense) {
  Point p = Point::Dense({1.5f, -2.25f, 0.0f});
  auto back = PointFromTextLine(PointToTextLine(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == p);
}

TEST(IoTextTest, PointLineRoundTripSparse) {
  Point p = Point::Sparse({2, 7, 90}, {1.0f, 0.5f, 3.0f}, 100);
  auto back = PointFromTextLine(PointToTextLine(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == p);
}

TEST(IoTextTest, MalformedLinesRejected) {
  EXPECT_FALSE(PointFromTextLine("").has_value());
  EXPECT_FALSE(PointFromTextLine("x 1 2").has_value());
  EXPECT_FALSE(PointFromTextLine("s").has_value());
  EXPECT_FALSE(PointFromTextLine("s 10 nocolon").has_value());
  EXPECT_FALSE(PointFromTextLine("s 10 5:1.0 3:2.0").has_value());  // unsorted
  EXPECT_FALSE(PointFromTextLine("s 10 12:1.0").has_value());  // out of range
  EXPECT_FALSE(PointFromTextLine("d 1.0 abc").has_value());
}

TEST(IoTextTest, FileRoundTripMixed) {
  PointSet pts = MixedPoints();
  std::string path = TempPath("points.txt");
  ASSERT_TRUE(SavePointsText(pts, path));
  StatusOr<PointSet> loaded = TryLoadPointsText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE((*loaded)[i] == pts[i]) << "point " << i;
  }
  std::remove(path.c_str());
}

TEST(IoTextTest, MissingFileIsNotFound) {
  StatusOr<PointSet> loaded = TryLoadPointsText("/nonexistent/dir/file.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// TryLoadDatasetBinary parses straight into the columns; it must build
// exactly what TryFromPoints(TryLoadPointsBinary) builds — rows, norms and
// statistics — or fail with the same code and message.
void ExpectDatasetLoadersAgree(const std::string& path) {
  SCOPED_TRACE(path);
  StatusOr<Dataset> got = TryLoadDatasetBinary(path);
  StatusOr<PointSet> points = TryLoadPointsBinary(path);
  StatusOr<Dataset> want =
      points.ok() ? Dataset::TryFromPoints(*points) : points.status();
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                 << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ASSERT_EQ(got->size(), want->size());
  EXPECT_EQ(got->dim(), want->dim());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_TRUE(got->RowEquals(i, want->point(i))) << "row " << i;
    EXPECT_EQ(got->norm(i), want->norm(i)) << "row " << i;
  }
  EXPECT_EQ(got->sparse_stats().rows, want->sparse_stats().rows);
  EXPECT_EQ(got->sparse_stats().total_nnz, want->sparse_stats().total_nnz);
  EXPECT_EQ(got->sparse_stats().max_nnz, want->sparse_stats().max_nnz);
  EXPECT_EQ(got->screen_stats().min_positive_norm,
            want->screen_stats().min_positive_norm);
  EXPECT_EQ(got->screen_stats().max_norm, want->screen_stats().max_norm);
  EXPECT_EQ(got->has_dense_rows(), want->has_dense_rows());
  EXPECT_EQ(got->MemoryBytes(), want->MemoryBytes());
}

TEST(IoBinaryTest, DatasetLoaderMatchesPointsPathOnValidFiles) {
  SparseTextOptions opts;
  opts.n = 40;
  opts.vocab_size = 60;
  opts.min_terms = 1;
  opts.max_terms = 9;
  opts.seed = 7;
  PointSet sparse = GenerateSparseTextDataset(opts);
  sparse.push_back(Point::Sparse({}, {}, 60));  // empty support
  PointSet mixed = GenerateUniformCube(15, 60, /*seed=*/8);
  mixed.insert(mixed.begin() + 5, sparse.begin(), sparse.begin() + 20);
  mixed.insert(mixed.begin() + 1, sparse.back());  // nnz 0 between dense
  mixed.push_back(sparse.back());
  const std::pair<const char*, PointSet> files[] = {
      {"ds-dense.bin", GenerateUniformCube(33, 7, /*seed=*/9)},
      {"ds-sparse.bin", sparse},
      {"ds-mixed.bin", mixed},
      {"ds-empty.bin", {}},
  };
  for (const auto& [name, pts] : files) {
    const std::string path = TempPath(name);
    ASSERT_TRUE(SavePointsBinary(pts, path));
    ExpectDatasetLoadersAgree(path);
    StatusOr<Dataset> ds = TryLoadDatasetBinary(path);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    EXPECT_EQ(ds->size(), pts.size());
    std::remove(path.c_str());
  }
}

TEST(IoBinaryTest, FileRoundTripMixed) {
  PointSet pts = MixedPoints();
  std::string path = TempPath("points.bin");
  ASSERT_TRUE(SavePointsBinary(pts, path));
  StatusOr<PointSet> loaded = TryLoadPointsBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE((*loaded)[i] == pts[i]) << "point " << i;
  }
  std::remove(path.c_str());
}

TEST(IoBinaryTest, EmptySetRoundTrips) {
  std::string path = TempPath("empty.bin");
  ASSERT_TRUE(SavePointsBinary({}, path));
  StatusOr<PointSet> loaded = TryLoadPointsBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

TEST(IoBinaryTest, BadMagicRejected) {
  std::string path = TempPath("garbage.bin");
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a point file at all";
    fwrite(junk, 1, sizeof(junk), f);
    fclose(f);
  }
  StatusOr<PointSet> loaded = TryLoadPointsBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  ExpectDatasetLoadersAgree(path);
  std::remove(path.c_str());
}

TEST(IoBinaryTest, TruncatedFileRejected) {
  PointSet pts = GenerateUniformCube(10, 3, /*seed=*/3);
  std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(SavePointsBinary(pts, path));
  // Truncate to half.
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  StatusOr<PointSet> loaded = TryLoadPointsBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  ExpectDatasetLoadersAgree(path);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corrupt-file corpus for the Status-returning loaders: every corruption
// class must map to a specific code with a diagnosable message, never an
// abort or a silent partial load.

// Overwrites `len` bytes at `offset` of an existing file.
void PatchFile(const std::string& path, long offset, const void* bytes,
               size_t len) {
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(fwrite(bytes, 1, len, f), len);
  fclose(f);
}

// A fresh valid binary file of 10 dense 3-d points (12-byte header, 21-byte
// records) the corruption tests patch.
std::string WriteValidBinary(const std::string& name) {
  std::string path = TempPath(name);
  PointSet pts = GenerateUniformCube(10, 3, /*seed=*/5);
  EXPECT_TRUE(SavePointsBinary(pts, path));
  return path;
}

TEST(IoStatusTest, MissingFileIsNotFound) {
  StatusOr<PointSet> r = TryLoadPointsBinary(TempPath("does-not-exist.bin"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  StatusOr<PointSet> t = TryLoadPointsText(TempPath("does-not-exist.txt"));
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
  ExpectDatasetLoadersAgree(TempPath("does-not-exist.bin"));
}

// The loaders read a whole file into a string sized from its length. A
// zero-byte file, a device and a missing file keep their codes and
// messages.
TEST(IoStatusTest, EmptyAndMissingFilesKeepTheirCodesAndMessages) {
  const std::string empty = TempPath("zero-bytes.bin");
  { std::ofstream touch(empty, std::ios::binary); }
  StatusOr<PointSet> text = TryLoadPointsText(empty);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_TRUE(text->empty());
  const std::string truncated =
      "truncated header (0 bytes, want at least 12) in '" + empty + "'";
  StatusOr<PointSet> points = TryLoadPointsBinary(empty);
  EXPECT_EQ(points.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(points.status().message(), truncated);
  StatusOr<Dataset> data = TryLoadDatasetBinary(empty);
  EXPECT_EQ(data.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(data.status().message(), truncated);
  std::remove(empty.c_str());

  // A file with no length to size from (a device) is read to EOF.
  StatusOr<PointSet> device = TryLoadPointsText("/dev/null");
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  EXPECT_TRUE(device->empty());
  EXPECT_EQ(TryLoadDatasetBinary("/dev/null").status().message(),
            "truncated header (0 bytes, want at least 12) in '/dev/null'");

  const std::string missing = TempPath("does-not-exist.bin");
  const std::string cannot_open = "cannot open '" + missing + "'";
  for (const Status& st :
       {TryLoadPointsText(missing).status(),
        TryLoadPointsBinary(missing).status(),
        TryLoadDatasetBinary(missing).status(),
        TryLoadDatasetText(missing).status()}) {
    EXPECT_EQ(st.code(), StatusCode::kNotFound);
    EXPECT_EQ(st.message(), cannot_open);
  }
}

TEST(IoStatusTest, TruncatedHeaderIsDataLoss) {
  std::string path = WriteValidBinary("header.bin");
  ASSERT_EQ(truncate(path.c_str(), 7), 0);  // mid-count
  StatusOr<PointSet> r = TryLoadPointsBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  ExpectDatasetLoadersAgree(path);
  std::remove(path.c_str());
}

TEST(IoStatusTest, BadMagicIsInvalidArgumentWithHex) {
  std::string path = WriteValidBinary("magic.bin");
  const uint32_t junk = 0xDEADBEEF;
  PatchFile(path, 0, &junk, sizeof(junk));
  StatusOr<PointSet> r = TryLoadPointsBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("0xDEADBEEF"), std::string::npos)
      << r.status().message();
  ExpectDatasetLoadersAgree(path);
  std::remove(path.c_str());
}

TEST(IoStatusTest, AbsurdRecordCountRejectedBeforeAllocation) {
  std::string path = WriteValidBinary("count.bin");
  // Claim ~2^60 records in a ~222-byte file; the loader must reject from
  // the size check, not attempt the reserve.
  const uint64_t absurd = 1ULL << 60;
  PatchFile(path, 4, &absurd, sizeof(absurd));
  StatusOr<PointSet> r = TryLoadPointsBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  ExpectDatasetLoadersAgree(path);
  std::remove(path.c_str());
}

TEST(IoStatusTest, TruncatedRecordIsDataLossNamingTheRecord) {
  std::string path = WriteValidBinary("record.bin");
  // Keep the header and the first two full records, cut inside the third.
  ASSERT_EQ(truncate(path.c_str(), 12 + 2 * 21 + 5), 0);
  StatusOr<PointSet> r = TryLoadPointsBinary(path);
  EXPECT_FALSE(r.ok());
  // The count now exceeds what the payload can hold, or the read hits EOF;
  // either way the message names the file.
  EXPECT_NE(r.status().message().find("record.bin"), std::string::npos);
  ExpectDatasetLoadersAgree(path);
  std::remove(path.c_str());
}

TEST(IoStatusTest, UnknownTagIsInvalidArgument) {
  std::string path = WriteValidBinary("tag.bin");
  const uint8_t bad_tag = 7;
  PatchFile(path, 12, &bad_tag, sizeof(bad_tag));
  StatusOr<PointSet> r = TryLoadPointsBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("record 0"), std::string::npos)
      << r.status().message();
  ExpectDatasetLoadersAgree(path);
  std::remove(path.c_str());
}

TEST(IoStatusTest, DenseNnzDimMismatchIsInvalidArgument) {
  std::string path = WriteValidBinary("nnzdim.bin");
  const uint32_t bad_nnz = 2;  // dim stays 3
  PatchFile(path, 12 + 1 + 4, &bad_nnz, sizeof(bad_nnz));
  StatusOr<PointSet> r = TryLoadPointsBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  ExpectDatasetLoadersAgree(path);
  std::remove(path.c_str());
}

TEST(IoStatusTest, HugeNnzRejectedBeforeAllocation) {
  std::string path = WriteValidBinary("hugennz.bin");
  // dim and nnz both huge: consistent with each other, but no file this
  // size could hold the payload — must be caught by the payload bound.
  const uint32_t huge = 0x40000000;
  PatchFile(path, 12 + 1, &huge, sizeof(huge));
  PatchFile(path, 12 + 1 + 4, &huge, sizeof(huge));
  StatusOr<PointSet> r = TryLoadPointsBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  ExpectDatasetLoadersAgree(path);
  std::remove(path.c_str());
}

TEST(IoStatusTest, CorruptSparseRecordsRejected) {
  PointSet pts;
  pts.push_back(Point::Sparse({2, 7, 9}, {1.0f, 0.5f, 3.0f}, 10));
  std::string path = TempPath("sparse.bin");
  ASSERT_TRUE(SavePointsBinary(pts, path));
  // Record layout: tag@12, dim@13, nnz@17, indices@21.
  {
    // nnz > dim (shrink dim under the unchanged nnz of 3).
    const uint32_t bad_dim = 2;
    PatchFile(path, 13, &bad_dim, sizeof(bad_dim));
    StatusOr<PointSet> r = TryLoadPointsBinary(path);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    ExpectDatasetLoadersAgree(path);
    const uint32_t good_dim = 10;
    PatchFile(path, 13, &good_dim, sizeof(good_dim));
  }
  {
    // Unsorted indices: overwrite index[1] (7) with 1 < index[0] (2).
    const uint32_t low = 1;
    PatchFile(path, 21 + 4, &low, sizeof(low));
    StatusOr<PointSet> r = TryLoadPointsBinary(path);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("unsorted"), std::string::npos);
    ExpectDatasetLoadersAgree(path);
    const uint32_t restore = 7;
    PatchFile(path, 21 + 4, &restore, sizeof(restore));
  }
  {
    // Index out of range: last index (9) -> 10 == dim.
    const uint32_t oob = 10;
    PatchFile(path, 21 + 8, &oob, sizeof(oob));
    StatusOr<PointSet> r = TryLoadPointsBinary(path);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
    ExpectDatasetLoadersAgree(path);
  }
  std::remove(path.c_str());
}

TEST(IoStatusTest, MalformedTextLineNamesTheLine) {
  std::string path = TempPath("malformed.txt");
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("d 1.0 2.0\nd 3.0 4.0\nnot a point\n", f);
    fclose(f);
  }
  StatusOr<PointSet> r = TryLoadPointsText(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("not a point"), std::string::npos);
  std::remove(path.c_str());
}

TEST(IoStatusTest, TryLoadersRoundTripValidFiles) {
  PointSet pts = MixedPoints();
  std::string bin = TempPath("try-roundtrip.bin");
  std::string txt = TempPath("try-roundtrip.txt");
  ASSERT_TRUE(SavePointsBinary(pts, bin));
  ASSERT_TRUE(SavePointsText(pts, txt));
  StatusOr<PointSet> from_bin = TryLoadPointsBinary(bin);
  StatusOr<PointSet> from_txt = TryLoadPointsText(txt);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  ASSERT_TRUE(from_txt.ok()) << from_txt.status().ToString();
  ASSERT_EQ(from_bin->size(), pts.size());
  ASSERT_EQ(from_txt->size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE((*from_bin)[i] == pts[i]);
    EXPECT_TRUE((*from_txt)[i] == pts[i]);
  }
  std::remove(bin.c_str());
  std::remove(txt.c_str());
  // Dataset wrappers share the same validation path (uniform-dim input:
  // Dataset requires it).
  PointSet uniform = GenerateUniformCube(15, 4, /*seed=*/6);
  std::string upath = TempPath("try-roundtrip-ds.bin");
  ASSERT_TRUE(SavePointsBinary(uniform, upath));
  StatusOr<Dataset> ds = TryLoadDatasetBinary(upath);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->size(), uniform.size());
  std::remove(upath.c_str());
}

// A Dataset holds one dim: the Dataset loaders reject mixed-dim files with
// a Status naming the first point whose dim differs, instead of aborting.
TEST(IoStatusTest, MixedDimDatasetLoadIsInvalidArgument) {
  std::string bin = TempPath("mixed-dim.bin");
  ASSERT_TRUE(SavePointsBinary(
      {Point::Dense3(1, 2, 3), Point::Dense({1, 2, 3, 4})}, bin));
  StatusOr<Dataset> from_bin = TryLoadDatasetBinary(bin);
  EXPECT_EQ(from_bin.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(from_bin.status().message().find("point 1 has dim 4"),
            std::string::npos)
      << from_bin.status().message();
  ExpectDatasetLoadersAgree(bin);
  std::remove(bin.c_str());

  std::string txt = TempPath("mixed-dim.txt");
  {
    FILE* f = fopen(txt.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("d 1 2 3\nd 1 2 3\nd 1 2 3 4\n", f);
    fclose(f);
  }
  StatusOr<Dataset> from_txt = TryLoadDatasetText(txt);
  EXPECT_EQ(from_txt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(from_txt.status().message().find("point 2 has dim 4"),
            std::string::npos)
      << from_txt.status().message();
  std::remove(txt.c_str());
}

// A malformed record anywhere wins over a dim mismatch before it: the
// PointSet parse fails first, so TryFromPoints never sees the mismatch.
TEST(IoStatusTest, DimMismatchThenTruncatedRecordIsDataLoss) {
  std::string path = TempPath("mixed-dim-truncated.bin");
  ASSERT_TRUE(SavePointsBinary({Point::Dense3(1, 2, 3),
                                Point::Dense({1, 2, 3, 4}),
                                Point::Dense3(4, 5, 6)},
                               path));
  // Header 12 bytes, records of 21 and 25 bytes; cut inside the third.
  ASSERT_EQ(truncate(path.c_str(), 12 + 21 + 25 + 5), 0);
  StatusOr<Dataset> r = TryLoadDatasetBinary(path);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("record 2"), std::string::npos)
      << r.status().message();
  ExpectDatasetLoadersAgree(path);
  std::remove(path.c_str());
}

// A zero-byte read of an empty view (whose data pointer is null) must not
// reach memcpy: passing it a null source is undefined even for zero bytes.
TEST(ByteReaderTest, ZeroByteReadOfEmptyViewSucceeds) {
  ByteReader in{std::string_view()};
  char sink = 'x';
  EXPECT_TRUE(in.Read(&sink, 0));
  EXPECT_EQ(sink, 'x');
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_FALSE(in.Read(&sink, 1));
}

}  // namespace
}  // namespace diverse
