#include "knmatch/io/binary.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

namespace knmatch::io {

namespace {

constexpr char kMagic[4] = {'K', 'N', 'M', '1'};

uint64_t Fnv1a(const std::vector<char>& bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

template <typename T>
void Append(std::vector<char>* out, const T& value) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

template <typename T>
bool Take(const std::vector<char>& in, size_t* offset, T* value) {
  if (*offset + sizeof(T) > in.size()) return false;
  std::memcpy(value, in.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

}  // namespace

Status SaveDataset(const Dataset& db, const std::string& path) {
  std::vector<char> bytes;
  bytes.insert(bytes.end(), kMagic, kMagic + 4);
  Append<uint64_t>(&bytes, db.size());
  Append<uint64_t>(&bytes, db.dims());
  Append<uint8_t>(&bytes, db.labelled() ? 1 : 0);
  for (PointId pid = 0; pid < db.size(); ++pid) {
    for (const Value v : db.point(pid)) Append<double>(&bytes, v);
  }
  if (db.labelled()) {
    for (PointId pid = 0; pid < db.size(); ++pid) {
      Append<int32_t>(&bytes, db.label(pid));
    }
  }
  const uint64_t checksum = Fnv1a(bytes);
  Append<uint64_t>(&bytes, checksum);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot create " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

Result<Dataset> LoadDataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open " + path);
  const std::streamsize file_size = in.tellg();
  in.seekg(0);
  std::vector<char> bytes(static_cast<size_t>(file_size));
  in.read(bytes.data(), file_size);
  if (!in) return Status::Internal("short read from " + path);

  if (bytes.size() < 4 + 8 + 8 + 1 + 8 ||
      std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return Status::InvalidArgument(path + " is not a KNM1 dataset file");
  }
  // Verify the trailing checksum first.
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, bytes.data() + bytes.size() - 8, 8);
  std::vector<char> body(bytes.begin(), bytes.end() - 8);
  if (Fnv1a(body) != stored_checksum) {
    return Status::Internal(path + ": checksum mismatch (corrupt file)");
  }

  size_t offset = 4;
  uint64_t rows = 0, cols = 0;
  uint8_t has_labels = 0;
  if (!Take(body, &offset, &rows) || !Take(body, &offset, &cols) ||
      !Take(body, &offset, &has_labels)) {
    return Status::Internal(path + ": truncated header");
  }
  const size_t expected = offset + rows * cols * sizeof(double) +
                          (has_labels != 0 ? rows * sizeof(int32_t) : 0);
  if (body.size() != expected) {
    return Status::Internal(path + ": payload size mismatch");
  }

  Matrix points(rows, cols);
  for (Value& v : points.data()) {
    double raw = 0;
    Take(body, &offset, &raw);
    v = raw;
  }
  if (has_labels == 0) {
    return Dataset(std::move(points));
  }
  std::vector<Label> labels(rows);
  for (Label& label : labels) {
    int32_t raw = 0;
    Take(body, &offset, &raw);
    label = raw;
  }
  return Dataset(std::move(points), std::move(labels));
}

}  // namespace knmatch::io
