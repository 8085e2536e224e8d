// One durable, checksummed, atomically replaced text file: the on-disk
// primitive under every qperc store (campaign ResultStore, FairnessStore,
// the population StudyStore, and the VideoLibrary cache).
//
// A file is a header line, the payload (empty, or whole '\n'-terminated
// lines), and a footer line holding the 16-hex-digit FNV-1a of the header
// line, its '\n' and the payload. The header's first token is the format
// magic; the rest of the header and the payload belong to the store. A
// write replaces the file atomically through a sibling temp file and
// rename. A read rejects any file that is missing, has a different magic,
// lacks a well-formed footer, fails the checksum, or carries bytes after
// the footer. Because the header is inside the checksum, no field of a
// store file can change undetected. Layout and per-store headers:
// ARCHITECTURE.md, "Durable files".
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace qperc {

struct DurableContents {
  std::string header;   ///< the header line, magic included, without '\n'
  std::string payload;  ///< everything between the header and the footer
};

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

}  // namespace qperc
