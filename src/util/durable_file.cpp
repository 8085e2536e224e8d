#include "util/durable_file.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "util/rng.hpp"

namespace qperc {
namespace {

/// The footer line (without its '\n') guarding `guarded`.
std::string footer_for(std::string_view guarded) {
  char digits[17];
  std::snprintf(digits, sizeof digits, "%016" PRIx64, fnv1a(guarded));
  return std::string("checksum ") + digits;
}

}  // namespace

std::string durable_temp_path(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

void write_durable(const std::string& path, std::string_view header,
                   std::string_view payload) {
  if (header.find('\n') != std::string_view::npos ||
      (!payload.empty() && payload.back() != '\n')) {
    throw std::invalid_argument("durable file " + path +
                                ": header must be one line, payload whole lines");
  }
  std::string contents(header);
  contents.append(1, '\n').append(payload);
  contents.append(footer_for(contents)).append(1, '\n');

  const std::string temp_path = durable_temp_path(path);
  std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot create " + temp_path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  if (!out || std::rename(temp_path.c_str(), path.c_str()) != 0) {
    std::remove(temp_path.c_str());
    throw std::runtime_error("cannot write " + path + " (via " + temp_path + ")");
  }
}

std::optional<DurableContents> read_durable(const std::string& path,
                                            std::string_view magic) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = std::move(buffer).str();

  // The footer is the last line, so any byte after it makes the footer
  // malformed; the header is the first line and the payload lies between.
  if (contents.size() < 2 || contents.back() != '\n') return std::nullopt;
  const std::size_t footer_start = contents.rfind('\n', contents.size() - 2) + 1;
  if (footer_start == 0) return std::nullopt;  // one line: no header
  const std::string_view whole(contents);
  if (whole.substr(footer_start, contents.size() - 1 - footer_start) !=
      footer_for(whole.substr(0, footer_start))) {
    return std::nullopt;
  }
  const std::size_t header_end = contents.find('\n');
  const std::string_view header = whole.substr(0, header_end);
  if (!header.starts_with(magic) ||
      (header.size() > magic.size() && header[magic.size()] != ' ')) {
    return std::nullopt;
  }
  return DurableContents{std::string(header),
                         std::string(whole.substr(header_end + 1,
                                                  footer_start - header_end - 1))};
}

}  // namespace qperc
