#include "data/io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace diverse {

namespace {

constexpr uint32_t kBinaryMagic = 0x44495650;  // "DIVP"
constexpr uint8_t kDenseTag = 0;
constexpr uint8_t kSparseTag = 1;
// tag (1) + dim (4) + nnz (4): the smallest possible record. Used to reject
// header counts no file of this size could hold before reserving memory.
constexpr uint64_t kMinRecordBytes = 9;

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

}  // namespace

std::string PointToTextLine(const Point& point) {
  // %.9g prints enough significant digits for exact float round-trips.
  char buf[48];
  std::string out;
  if (point.is_sparse()) {
    out = "s " + std::to_string(point.dim());
    const auto& idx = point.sparse_indices();
    const auto& val = point.sparse_values();
    for (size_t i = 0; i < idx.size(); ++i) {
      std::snprintf(buf, sizeof(buf), " %u:%.9g", idx[i],
                    static_cast<double>(val[i]));
      out += buf;
    }
  } else {
    out = "d";
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
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return DataLossError("read error in " + Quoted(path));
  return std::move(buf).str();
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
  const uint8_t tag = point.is_sparse() ? kSparseTag : kDenseTag;
  const uint32_t dim = static_cast<uint32_t>(point.dim());
  const uint32_t nnz = static_cast<uint32_t>(point.nnz());
  out->append(reinterpret_cast<const char*>(&tag), sizeof(tag));
  out->append(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out->append(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  if (point.is_sparse()) {
    out->append(reinterpret_cast<const char*>(point.sparse_indices().data()),
                nnz * sizeof(uint32_t));
    out->append(reinterpret_cast<const char*>(point.sparse_values().data()),
                nnz * sizeof(float));
  } else {
    out->append(reinterpret_cast<const char*>(point.dense_values().data()),
                nnz * sizeof(float));
  }
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

StatusOr<Point> TryReadPointRecord(ByteReader* in, const std::string& where) {
  uint8_t tag;
  uint32_t dim, nnz;
  if (!in->Read(&tag, sizeof(tag)) || !in->Read(&dim, sizeof(dim)) ||
      !in->Read(&nnz, sizeof(nnz))) {
    return DataLossError("truncated record header at " + where);
  }
  // A record's payload cannot exceed the bytes that remain: reject corrupt
  // nnz fields before they turn into huge allocations.
  const uint64_t entry_bytes =
      tag == kSparseTag ? sizeof(uint32_t) + sizeof(float) : sizeof(float);
  if (static_cast<uint64_t>(nnz) * entry_bytes > in->remaining()) {
    return DataLossError("record payload (" + std::to_string(nnz) +
                         " entries) exceeds file size at " + where);
  }
  if (tag == kDenseTag) {
    if (nnz != dim) {
      return InvalidArgumentError("dense record with nnz " +
                                  std::to_string(nnz) + " != dim " +
                                  std::to_string(dim) + " at " + where);
    }
    std::vector<float> values(nnz);
    if (!in->Read(values.data(), nnz * sizeof(float))) {
      return DataLossError("truncated dense payload at " + where);
    }
    return Point::Dense(std::move(values));
  }
  if (tag == kSparseTag) {
    if (nnz > dim) {
      return InvalidArgumentError("sparse record with nnz " +
                                  std::to_string(nnz) + " > dim " +
                                  std::to_string(dim) + " at " + where);
    }
    std::vector<uint32_t> indices(nnz);
    std::vector<float> values(nnz);
    if (!in->Read(indices.data(), nnz * sizeof(uint32_t)) ||
        !in->Read(values.data(), nnz * sizeof(float))) {
      return DataLossError("truncated sparse payload at " + where);
    }
    for (size_t j = 0; j + 1 < indices.size(); ++j) {
      if (indices[j] >= indices[j + 1]) {
        return InvalidArgumentError("unsorted sparse indices at " + where);
      }
    }
    if (!indices.empty() && indices.back() >= dim) {
      return InvalidArgumentError(
          "sparse index " + std::to_string(indices.back()) +
          " out of range for dim " + std::to_string(dim) + " at " + where);
    }
    return Point::Sparse(std::move(indices), std::move(values), dim);
  }
  return InvalidArgumentError("unknown record tag " +
                              std::to_string(static_cast<int>(tag)) + " at " +
                              where);
}

StatusOr<PointSet> TryParsePointsBinary(std::string_view bytes,
                                        const std::string& origin) {
  const uint64_t file_size = bytes.size();
  ByteReader in(bytes);
  uint32_t magic = 0;
  uint64_t count = 0;
  if (!in.Read(&magic, sizeof(magic)) || !in.Read(&count, sizeof(count))) {
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
  if (count > payload / kMinRecordBytes) {
    return InvalidArgumentError(
        "header claims " + std::to_string(count) + " records but " +
        Quoted(origin) + " has only " + std::to_string(payload) +
        " payload bytes");
  }
  PointSet points;
  points.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    StatusOr<Point> p = TryReadPointRecord(
        &in, "record " + std::to_string(i) + " of " + Quoted(origin));
    if (!p.ok()) return p.status();
    points.push_back(std::move(*p));
  }
  return points;
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
  StatusOr<PointSet> points = TryLoadPointsBinary(path);
  if (!points.ok()) return points.status();
  return Dataset::TryFromPoints(*points);
}

std::optional<PointSet> LoadPointsText(const std::string& path) {
  StatusOr<PointSet> points = TryLoadPointsText(path);
  if (!points.ok()) return std::nullopt;
  return std::move(*points);
}

std::optional<PointSet> LoadPointsBinary(const std::string& path) {
  StatusOr<PointSet> points = TryLoadPointsBinary(path);
  if (!points.ok()) return std::nullopt;
  return std::move(*points);
}

std::optional<Dataset> LoadDatasetText(const std::string& path) {
  StatusOr<Dataset> data = TryLoadDatasetText(path);
  if (!data.ok()) return std::nullopt;
  return std::move(*data);
}

std::optional<Dataset> LoadDatasetBinary(const std::string& path) {
  StatusOr<Dataset> data = TryLoadDatasetBinary(path);
  if (!data.ok()) return std::nullopt;
  return std::move(*data);
}

}  // namespace diverse
