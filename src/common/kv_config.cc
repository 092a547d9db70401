#include "common/kv_config.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"
#include "common/parse.h"

namespace chopper::common {

namespace {
std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}
}  // namespace

void KvConfig::set(const std::string& key, std::string value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(key, std::move(value));
}

void KvConfig::set_int(const std::string& key, std::int64_t value) {
  set(key, std::to_string(value));
}

std::optional<std::string> KvConfig::get(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

bool KvConfig::contains(const std::string& key) const {
  return get(key).has_value();
}

bool KvConfig::erase(const std::string& key) {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const auto& kv) { return kv.first == key; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

std::string KvConfig::to_string() const {
  std::ostringstream os;
  for (const auto& [k, v] : entries_) os << k << " = " << v << "\n";
  return os.str();
}

KvConfig KvConfig::parse(const std::string& text, bool tolerant,
                         const std::string& source) {
  KvConfig cfg;
  cfg.source_ = source;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    const auto eq = t.find('=');
    if (eq == std::string::npos) {
      const std::string msg =
          source + ":" + std::to_string(line_no) + ": malformed line: " + t;
      if (tolerant) {
        LOG_WARN << "KvConfig: skipping " << msg;
        continue;
      }
      throw ParseError(msg);
    }
    cfg.set(trim(t.substr(0, eq)), trim(t.substr(eq + 1)));
  }
  return cfg;
}

void KvConfig::save(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("KvConfig: cannot write " + path);
  os << to_string();
}

KvConfig KvConfig::load(const std::string& path, bool tolerant) {
  std::ifstream is(path);
  if (!is) {
    if (tolerant) {
      LOG_WARN << "KvConfig: cannot read " << path
               << "; continuing with an empty config";
      return KvConfig{};
    }
    throw std::runtime_error("KvConfig: cannot read " + path);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse(buf.str(), tolerant, path);
}

}  // namespace chopper::common
