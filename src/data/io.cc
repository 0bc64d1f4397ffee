#include "data/io.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace diverse {

namespace {

constexpr uint32_t kBinaryMagic = 0x44495650;  // "DIVP"

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

}  // namespace

std::string PointToTextLine(const Point& point) {
  // %.9g prints enough significant digits for exact float round-trips.
  char buf[48];
  std::string out;
  if (point.is_sparse()) {
    out.append("s ").append(std::to_string(point.dim()));
    const auto& idx = point.sparse_indices();
    const auto& val = point.sparse_values();
    for (size_t i = 0; i < idx.size(); ++i) {
      std::snprintf(buf, sizeof(buf), " %u:%.9g", idx[i],
                    static_cast<double>(val[i]));
      out += buf;
    }
  } else {
    out.push_back('d');
    for (float v : point.dense_values()) {
      std::snprintf(buf, sizeof(buf), " %.9g", static_cast<double>(v));
      out += buf;
    }
  }
  return out;
}

std::optional<Point> PointFromTextLine(const std::string& line) {
  std::istringstream in(line);
  std::string tag;
  if (!(in >> tag)) return std::nullopt;
  if (tag == "d") {
    std::vector<float> values;
    float v;
    while (in >> v) values.push_back(v);
    if (!in.eof()) return std::nullopt;
    return Point::Dense(std::move(values));
  }
  if (tag == "s") {
    uint32_t dim;
    if (!(in >> dim)) return std::nullopt;
    std::vector<uint32_t> indices;
    std::vector<float> values;
    std::string pair;
    while (in >> pair) {
      size_t colon = pair.find(':');
      if (colon == std::string::npos) return std::nullopt;
      char* end = nullptr;
      unsigned long idx = std::strtoul(pair.c_str(), &end, 10);
      if (end != pair.c_str() + colon) return std::nullopt;
      float val = std::strtof(pair.c_str() + colon + 1, &end);
      if (end != pair.c_str() + pair.size()) return std::nullopt;
      if (!indices.empty() && idx <= indices.back()) return std::nullopt;
      if (idx >= dim) return std::nullopt;
      indices.push_back(static_cast<uint32_t>(idx));
      values.push_back(val);
    }
    return Point::Sparse(std::move(indices), std::move(values), dim);
  }
  return std::nullopt;
}

bool SavePointsText(const PointSet& points, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# diverse point set, " << points.size() << " points\n";
  for (const Point& p : points) out << PointToTextLine(p) << "\n";
  return static_cast<bool>(out);
}

namespace {

// Reads a whole file into memory for the parse cores. kNotFound when the
// file cannot be opened, kDataLoss on a mid-read I/O error.
StatusOr<std::string> ReadFileBytes(const std::string& path, bool binary) {
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) return NotFoundError("cannot open " + Quoted(path));
  std::string bytes;
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) {
    // A regular file: one read into a string sized from its length (short
    // if the file shrank since).
    bytes.resize(static_cast<size_t>(size));
    in.read(bytes.data(), static_cast<std::streamsize>(size));
    bytes.resize(static_cast<size_t>(in.gcount()));
  } else {
    // No length to size from (a pipe, a device, a directory): read to EOF.
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = std::move(buf).str();
  }
  if (in.bad()) return DataLossError("read error in " + Quoted(path));
  return bytes;
}

}  // namespace

StatusOr<PointSet> TryParsePointsText(std::string_view text,
                                      const std::string& origin) {
  PointSet points;
  size_t line_no = 0;
  size_t pos = 0;
  std::string line;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    line.assign(text, pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::optional<Point> p = PointFromTextLine(line);
    if (!p.has_value()) {
      return InvalidArgumentError("malformed point on line " +
                                  std::to_string(line_no) + " of " +
                                  Quoted(origin) + ": " + Quoted(line));
    }
    points.push_back(std::move(*p));
  }
  return points;
}

StatusOr<PointSet> TryLoadPointsText(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileBytes(path, /*binary=*/false);
  if (!bytes.ok()) return bytes.status();
  return TryParsePointsText(*bytes, path);
}

void AppendPointRecord(const Point& point, std::string* out) {
  const kernels::VecView v = point.View();
  const size_t at = out->size();
  out->resize(at + RecordSize(v));
  WriteRecord(v, out->data() + at);
}

std::string EncodePointsBinary(const PointSet& points) {
  std::string out;
  const uint32_t magic = kBinaryMagic;
  const uint64_t count = points.size();
  out.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Point& p : points) AppendPointRecord(p, &out);
  return out;
}

bool SavePointsBinary(const PointSet& points, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const std::string bytes = EncodePointsBinary(points);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::string RecordLocation::ToString() const {
  return std::string(label) + " " + std::to_string(index) + " of " +
         std::string(of);
}

StatusOr<RecordBytes> TryDecodeRecord(ByteReader* in,
                                      const RecordLocation& where) {
  uint8_t tag;
  RecordBytes rec;
  if (!in->Read(&tag, sizeof(tag)) || !in->Read(&rec.dim, sizeof(rec.dim)) ||
      !in->Read(&rec.nnz, sizeof(rec.nnz))) {
    return DataLossError("truncated record header at " + where.ToString());
  }
  const uint32_t dim = rec.dim;
  const uint32_t nnz = rec.nnz;
  // A record's payload cannot exceed the bytes that remain: reject corrupt
  // nnz fields before they turn into huge allocations.
  const uint64_t entry_bytes = tag == kSparseRecordTag
                                   ? sizeof(uint32_t) + sizeof(float)
                                   : sizeof(float);
  if (static_cast<uint64_t>(nnz) * entry_bytes > in->remaining()) {
    return DataLossError("record payload (" + std::to_string(nnz) +
                         " entries) exceeds file size at " +
                         where.ToString());
  }
  if (tag == kDenseRecordTag) {
    if (nnz != dim) {
      return InvalidArgumentError("dense record with nnz " +
                                  std::to_string(nnz) + " != dim " +
                                  std::to_string(dim) + " at " +
                                  where.ToString());
    }
    if (!in->Take(nnz * sizeof(float), &rec.values)) {
      return DataLossError("truncated dense payload at " + where.ToString());
    }
    return rec;
  }
  if (tag == kSparseRecordTag) {
    if (nnz > dim) {
      return InvalidArgumentError("sparse record with nnz " +
                                  std::to_string(nnz) + " > dim " +
                                  std::to_string(dim) + " at " +
                                  where.ToString());
    }
    if (!in->Take(nnz * sizeof(uint32_t), &rec.indices) ||
        !in->Take(nnz * sizeof(float), &rec.values)) {
      return DataLossError("truncated sparse payload at " + where.ToString());
    }
    rec.sparse = true;
    uint32_t prev = 0;
    for (uint32_t j = 0; j < nnz; ++j) {
      uint32_t index;
      std::memcpy(&index, rec.indices + j * sizeof(uint32_t), sizeof(index));
      if (j > 0 && prev >= index) {
        return InvalidArgumentError("unsorted sparse indices at " +
                                    where.ToString());
      }
      prev = index;
    }
    if (nnz > 0 && prev >= dim) {
      return InvalidArgumentError(
          "sparse index " + std::to_string(prev) + " out of range for dim " +
          std::to_string(dim) + " at " + where.ToString());
    }
    return rec;
  }
  return InvalidArgumentError("unknown record tag " +
                              std::to_string(static_cast<int>(tag)) + " at " +
                              where.ToString());
}

namespace {

// Reads and checks the header of binary-format `bytes`; returns the record
// count, which the file is known to be able to hold.
StatusOr<uint64_t> TryReadBinaryHeader(ByteReader* in, uint64_t file_size,
                                       const std::string& origin) {
  uint32_t magic = 0;
  uint64_t count = 0;
  if (!in->Read(&magic, sizeof(magic)) || !in->Read(&count, sizeof(count))) {
    return DataLossError("truncated header (" + std::to_string(file_size) +
                         " bytes, want at least 12) in " + Quoted(origin));
  }
  if (magic != kBinaryMagic) {
    char hex[16];
    std::snprintf(hex, sizeof(hex), "0x%08X", magic);
    return InvalidArgumentError("bad magic " + std::string(hex) + " in " +
                                Quoted(origin) + " (want DIVP)");
  }
  // Reject record counts the file cannot possibly hold before reserving:
  // a corrupted count field must not translate into a huge allocation.
  const uint64_t payload = file_size - sizeof(magic) - sizeof(count);
  // Each record takes at least kRecordHeaderBytes.
  if (count > payload / kRecordHeaderBytes) {
    return InvalidArgumentError(
        "header claims " + std::to_string(count) + " records but " +
        Quoted(origin) + " has only " + std::to_string(payload) +
        " payload bytes");
  }
  return count;
}

}  // namespace

StatusOr<Point> TryReadPointRecord(ByteReader* in,
                                   const RecordLocation& where) {
  StatusOr<RecordBytes> rec = TryDecodeRecord(in, where);
  if (!rec.ok()) return rec.status();
  std::vector<float> values(rec->nnz);
  if (rec->nnz > 0) {
    std::memcpy(values.data(), rec->values, rec->nnz * sizeof(float));
  }
  if (!rec->sparse) return Point::Dense(std::move(values));
  std::vector<uint32_t> indices(rec->nnz);
  if (rec->nnz > 0) {
    std::memcpy(indices.data(), rec->indices, rec->nnz * sizeof(uint32_t));
  }
  return Point::Sparse(std::move(indices), std::move(values), rec->dim);
}

StatusOr<PointSet> TryParsePointsBinary(std::string_view bytes,
                                        const std::string& origin) {
  ByteReader in(bytes);
  StatusOr<uint64_t> count = TryReadBinaryHeader(&in, bytes.size(), origin);
  if (!count.ok()) return count.status();
  const std::string quoted = Quoted(origin);
  PointSet points;
  points.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    StatusOr<Point> p = TryReadPointRecord(&in, {"record", i, quoted});
    if (!p.ok()) return p.status();
    points.push_back(std::move(*p));
  }
  return points;
}

StatusOr<Dataset> TryParseDatasetBinary(std::string_view bytes,
                                        const std::string& origin) {
  ByteReader in(bytes);
  StatusOr<uint64_t> count = TryReadBinaryHeader(&in, bytes.size(), origin);
  if (!count.ok()) return count.status();
  const std::string quoted = Quoted(origin);
  // Pass 1 validates every record and totals the arrays. A malformed
  // record anywhere wins over a dim mismatch, as in TryParsePointsBinary
  // followed by Dataset::TryFromPoints.
  const size_t records_at = bytes.size() - in.remaining();
  size_t dense_values = 0;
  size_t sparse_entries = 0;
  uint32_t first_dim = 0;
  Status dim_error = OkStatus();
  for (uint64_t i = 0; i < *count; ++i) {
    StatusOr<RecordBytes> rec = TryDecodeRecord(&in, {"record", i, quoted});
    if (!rec.ok()) return rec.status();
    (rec->sparse ? sparse_entries : dense_values) += rec->nnz;
    if (i == 0) first_dim = rec->dim;
    if (rec->dim != first_dim && dim_error.ok()) {
      dim_error = RowDimMismatchError(i, rec->dim, first_dim);
    }
  }
  if (!dim_error.ok()) return dim_error;
  // Pass 2 copies the validated run into arrays sized once.
  Dataset data;
  data.AppendRecordRun(
      bytes.substr(records_at, bytes.size() - in.remaining() - records_at),
      *count, dense_values, sparse_entries);
  data.Restamp();
  return data;
}

StatusOr<PointSet> TryLoadPointsBinary(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileBytes(path, /*binary=*/true);
  if (!bytes.ok()) return bytes.status();
  return TryParsePointsBinary(*bytes, path);
}

StatusOr<Dataset> TryLoadDatasetText(const std::string& path) {
  StatusOr<PointSet> points = TryLoadPointsText(path);
  if (!points.ok()) return points.status();
  return Dataset::TryFromPoints(*points);
}

StatusOr<Dataset> TryLoadDatasetBinary(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileBytes(path, /*binary=*/true);
  if (!bytes.ok()) return bytes.status();
  return TryParseDatasetBinary(*bytes, path);
}

}  // namespace diverse
