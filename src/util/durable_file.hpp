// One durable, checksummed, atomically replaced text file: the on-disk
// primitive under every qperc store (the runner's GridStore files, the
// population StudyStore, and the VideoLibrary cache).
//
// A file is a header line, the payload (empty, or whole '\n'-terminated
// lines), and a footer line holding the 16-hex-digit FNV-1a of the header
// line, its '\n' and the payload. The header's first token is the format
// magic; the rest of the header and the payload belong to the store. A
// write replaces the file atomically through a sibling temp file, one per
// process, and rename, so when two processes write one file at once the
// last complete write wins. A read rejects any file that is missing, has a
// different magic, lacks a well-formed footer, fails the checksum, or
// carries bytes after the footer. Because the header is inside the
// checksum, no field of a store file can change undetected. Layout and
// per-store headers: ARCHITECTURE.md, "Durable files".
#pragma once

#include <cstddef>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

namespace qperc {

struct DurableContents {
  std::string header;   ///< the header line, magic included, without '\n'
  std::string payload;  ///< everything between the header and the footer
};

/// The sibling temp file write_durable stages `path` in: `<path>.tmp.<pid>`.
/// Each process has its own, so concurrent writers never truncate or rename
/// each other's half-written file.
[[nodiscard]] std::string durable_temp_path(const std::string& path);

/// Atomically replaces `path` with `header` + payload + checksum footer.
/// `header` must be one line and `payload` empty or '\n'-terminated
/// (std::invalid_argument otherwise). Throws std::runtime_error when the
/// file cannot be written or renamed into place; the temp file is removed
/// and `path` is left as it was.
void write_durable(const std::string& path, std::string_view header,
                   std::string_view payload);

/// Reads and verifies a file written by write_durable whose header starts
/// with the token `magic`. Returns nullopt on any failure listed above.
[[nodiscard]] std::optional<DurableContents> read_durable(const std::string& path,
                                                          std::string_view magic);

/// The records of a keyed store, in key order. A Codec names the `Key` and
/// `Record` types and provides `key(record)`, `write(os, record)` (one
/// '\n'-terminated line) and `read(is, record)` (false on a malformed line).
template <class Codec>
using RecordMap = std::map<typename Codec::Key, typename Codec::Record>;

/// Writes a record file: a durable file whose header is `identity` (magic
/// first) plus the record count and whose payload is one line per record,
/// in key order. Throws std::runtime_error when the file cannot be written.
template <class Codec>
void write_records(const std::string& path, const std::string& identity,
                   const RecordMap<Codec>& records) {
  std::ostringstream payload;
  for (const auto& [key, record] : records) Codec::write(payload, record);
  write_durable(path, identity + ' ' + std::to_string(records.size()), payload.str());
}

/// Reads a file written by write_records with the same `identity`. Returns
/// nullopt when the file fails the durable-file checks, the header differs,
/// a record is malformed, the count is wrong, or two records share a key.
template <class Codec>
[[nodiscard]] std::optional<RecordMap<Codec>> read_records(const std::string& path,
                                                           const std::string& identity) {
  const auto file = read_durable(path, identity.substr(0, identity.find(' ')));
  std::size_t count = 0;
  if (!file || !file->header.starts_with(identity + ' ') ||
      !(std::istringstream(file->header.substr(identity.size() + 1)) >> count)) {
    return std::nullopt;
  }
  std::istringstream in(file->payload);
  RecordMap<Codec> records;
  std::string line;
  for (std::size_t i = 0; i < count && std::getline(in, line); ++i) {
    std::istringstream is(line);
    typename Codec::Record record;
    if (!Codec::read(is, record)) return std::nullopt;
    auto key = Codec::key(record);
    records.insert_or_assign(std::move(key), std::move(record));
  }
  if (records.size() != count || in.peek() != EOF) return std::nullopt;
  return records;
}

}  // namespace qperc
