// Key/value configuration files.
//
// CHOPPER communicates the per-stage partition plan to the (modified)
// DAGScheduler through a workload-specific configuration file (paper Fig. 6):
// one tuple per stage signature, carrying the partitioner kind and the
// partition count. This module provides the generic ordered string->string
// store plus load/save in a simple `key = value` format with `#` comments.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace chopper::common {

class KvConfig {
 public:
  KvConfig() = default;

  /// Sets (or overwrites) a key. Insertion order is preserved for new keys.
  void set(const std::string& key, std::string value);
  void set_int(const std::string& key, std::int64_t value);

  /// Raw value; numeric values are read through common/parse.h.
  std::optional<std::string> get(const std::string& key) const;

  bool contains(const std::string& key) const;
  bool erase(const std::string& key);
  std::size_t size() const noexcept { return entries_.size(); }

  /// All entries in insertion order.
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  /// Where the entries came from (the path, for load()), for error messages.
  const std::string& source() const noexcept { return source_; }

  /// Serialize to `key = value` lines.
  std::string to_string() const;

  /// Parse from text. Blank lines and `#...` comments are skipped.
  /// Strict mode (default) throws common::ParseError naming `source` and the
  /// line on malformed lines (missing '='); tolerant mode logs a warning and
  /// skips them instead, so one corrupt line cannot take down a whole run.
  static KvConfig parse(const std::string& text, bool tolerant = false,
                        const std::string& source = "config");

  /// File round-trip. load throws std::runtime_error if unreadable (strict)
  /// or returns an empty config with a logged warning (tolerant).
  void save(const std::string& path) const;
  static KvConfig load(const std::string& path, bool tolerant = false);

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
  std::string source_ = "config";
};

}  // namespace chopper::common
