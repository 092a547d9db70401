#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "ckpt/blockfile.h"
#include "common/hash.h"
#include "common/parse.h"
#include "obs/jsonl.h"

namespace chopper::ckpt {

namespace fs = std::filesystem;

namespace {

/// Fallback torn fragment for crash points where no event line is in hand
/// (crash just after a barrier flush): a prefix of a plausible next record.
constexpr const char* kTornFragment = "{\"k\":\"task\",\"job\":1,\"s";

bool is_barrier(const obs::Event& e) noexcept {
  return e.kind == obs::EventKind::kStageEnd ||
         e.kind == obs::EventKind::kJobFinish;
}

}  // namespace

std::string wal_path(const std::string& dir, std::size_t epoch) {
  return dir + "/wal-" + std::to_string(epoch) + ".jsonl";
}

std::optional<std::size_t> latest_wal_epoch(const std::string& dir) {
  std::error_code ec;
  std::optional<std::size_t> best;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 10 || name.compare(0, 4, "wal-") != 0 ||
        name.compare(name.size() - 6, 6, ".jsonl") != 0) {
      continue;
    }
    // A name whose middle is not an epoch (e.g. out of range) is ignored.
    const auto epoch = common::parse_int<std::size_t>(
        std::string_view(name).substr(4, name.size() - 10));
    if (epoch && (!best || *epoch > *best)) best = epoch;
  }
  return best;
}

CheckpointWriter::CheckpointWriter(std::string dir, CheckpointOptions opts)
    : dir_(std::move(dir)), opts_(opts) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("cannot create checkpoint directory: " + dir_);
  }
  if (const auto latest = latest_wal_epoch(dir_)) epoch_ = *latest + 1;
  wal_path_ = wal_path(dir_, epoch_);
  wal_ = std::fopen(wal_path_.c_str(), "wb");
  if (!wal_) {
    throw std::runtime_error("cannot open checkpoint WAL: " + wal_path_);
  }
  const std::string header = obs::jsonl_header() + "\n";
  std::fwrite(header.data(), 1, header.size(), wal_);
  written_ = header.size();
  flush_locked();  // the header is the durable baseline of the epoch
}

CheckpointWriter::~CheckpointWriter() {
  std::lock_guard lock(mu_);
  if (wal_) {
    if (!frozen_) flush_locked();
    std::fclose(wal_);
    wal_ = nullptr;
  }
}

void CheckpointWriter::flush_locked() {
  if (!wal_) return;
  std::fflush(wal_);
#if defined(__unix__) || defined(__APPLE__)
  if (opts_.sync) ::fsync(::fileno(wal_));
#endif
  durable_size_ = written_;
}

void CheckpointWriter::crash_locked(const std::string* torn_line) {
  // Model process death: everything buffered since the last barrier flush is
  // lost. Flush the stdio buffer so the file length is known, then cut the
  // file back to the durable watermark and (optionally) leave a torn partial
  // line — the worst on-disk state the durability contract allows.
  frozen_ = true;
  if (wal_) {
    std::fflush(wal_);
    std::fclose(wal_);
    wal_ = nullptr;
#if defined(__unix__) || defined(__APPLE__)
    ::truncate(wal_path_.c_str(),
               static_cast<::off_t>(durable_size_));
#endif
    if (opts_.crash.torn_tail) {
      if (std::FILE* f = std::fopen(wal_path_.c_str(), "ab")) {
        std::string frag = torn_line ? *torn_line : std::string(kTornFragment);
        while (!frag.empty() && frag.back() == '\n') frag.pop_back();
        // Cut mid-token so the fragment can never parse as a full record.
        frag.resize(std::max<std::size_t>(1, frag.size() * 2 / 3));
        std::fwrite(frag.data(), 1, frag.size(), f);
        std::fclose(f);
      }
    }
  }
  throw SimulatedCrash("simulated driver crash (checkpoint dir: " + dir_ +
                       ", wal epoch " + std::to_string(epoch_) + ")");
}

void CheckpointWriter::append(const obs::Event& e) {
  std::lock_guard lock(mu_);
  if (frozen_ || wal_ == nullptr) return;

  std::string line;
  obs::append_jsonl(e, line);

  const CrashSchedule& crash = opts_.crash;
  // Event-seq crash point: the Nth delivered event never reaches the log.
  if (crash.at_event_seq >= 0 &&
      appended_ == static_cast<std::uint64_t>(crash.at_event_seq)) {
    crash_locked(&line);
  }
  const bool barrier = is_barrier(e);
  if (barrier && crash.at_stage_barrier >= 0 && !crash.after_barrier_flush &&
      barriers_ == static_cast<std::uint64_t>(crash.at_stage_barrier)) {
    // The barrier line itself is lost: the stage stays uncommitted.
    crash_locked(&line);
  }

  std::fwrite(line.data(), 1, line.size(), wal_);
  written_ += line.size();
  ++appended_;
  if (!barrier) return;

  // Durability barrier: the stage/job boundary line (and every line that
  // preceded it) becomes durable before anything else happens.
  flush_locked();
  if (e.kind == obs::EventKind::kJobFinish) {
    ++jobs_finished_;
    write_kv_snapshot(
        dir_ + "/manifest.kv",
        {{"wal_epoch", std::to_string(epoch_)},
         {"events", std::to_string(appended_ + 1)},
         {"barriers", std::to_string(barriers_ + 1)},
         {"jobs_finished", std::to_string(jobs_finished_)},
         {"blocks", std::to_string(blocks_)}},
        opts_.sync);
  }
  const std::uint64_t this_barrier = barriers_++;
  if (crash.at_stage_barrier >= 0 && crash.after_barrier_flush &&
      this_barrier == static_cast<std::uint64_t>(crash.at_stage_barrier)) {
    // The stage IS committed; the process dies immediately after.
    crash_locked(nullptr);
  }
}

void CheckpointWriter::flush() {
  std::lock_guard lock(mu_);
  if (frozen_) return;
  flush_locked();
}

void CheckpointWriter::on_shuffle_committed(std::size_t job,
                                            std::size_t plan_index,
                                            std::size_t consumer,
                                            const engine::ShuffleOutput& so) {
  std::lock_guard lock(mu_);
  if (frozen_) return;
  // Best-effort by design: if the block cannot be written, the WAL commit
  // still proceeds and a later resume simply falls back to full re-execution
  // (the read side validates checksums), trading recovery speed, never
  // correctness.
  const std::string path =
      dir_ + "/" + shuffle_block_name(job, plan_index, consumer);
  if (write_shuffle_block(path, consumer, so, opts_.sync)) {
    ++blocks_;
    block_bytes_ += so.total_bytes;
  }
}

void CheckpointWriter::on_cache_committed(std::size_t job,
                                          std::size_t plan_index,
                                          std::size_t ordinal,
                                          const engine::CachedDataset& cd) {
  std::lock_guard lock(mu_);
  if (frozen_) return;
  const std::string path =
      dir_ + "/" + cache_block_name(job, plan_index, ordinal);
  if (write_cache_block(path, ordinal, cd, opts_.sync)) {
    ++blocks_;
    block_bytes_ += cd.bytes;
  }
}

void CheckpointWriter::on_result_committed(
    std::size_t job, std::size_t plan_index,
    const std::vector<engine::Partition>& parts) {
  std::lock_guard lock(mu_);
  if (frozen_) return;
  const std::string path = dir_ + "/" + result_block_name(job, plan_index);
  if (write_result_block(path, parts, opts_.sync)) {
    ++blocks_;
    for (const auto& part : parts) block_bytes_ += part.bytes();
  }
}

bool CheckpointWriter::crashed() const {
  std::lock_guard lock(mu_);
  return frozen_;
}

std::uint64_t CheckpointWriter::events_appended() const {
  std::lock_guard lock(mu_);
  return appended_;
}

std::uint64_t CheckpointWriter::barriers_seen() const {
  std::lock_guard lock(mu_);
  return barriers_;
}

std::uint64_t CheckpointWriter::blocks_written() const {
  std::lock_guard lock(mu_);
  return blocks_;
}

std::uint64_t CheckpointWriter::block_bytes_written() const {
  std::lock_guard lock(mu_);
  return block_bytes_;
}

// -- key/value snapshots -----------------------------------------------------

bool write_kv_snapshot(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& kv, bool sync) {
  std::string body = "#chopper-kv 1\n";
  for (const auto& [k, v] : kv) body += k + "=" + v + "\n";
  common::Checksum64 sum;
  sum.update_bytes(body.data(), body.size());
  char hex[32];
  std::snprintf(hex, sizeof(hex), "#sum=%016llx\n",
                static_cast<unsigned long long>(sum.digest()));
  return write_file_atomic(path, body + hex, sync);
}

std::optional<std::vector<std::pair<std::string, std::string>>>
read_kv_snapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);

  // The footer is exactly "#sum=<hex digest>\n", the file's last line.
  const std::size_t sum_at = content.rfind("#sum=");
  if (sum_at == std::string::npos || content.back() != '\n') {
    return std::nullopt;
  }
  const std::string_view hex = std::string_view(content).substr(
      sum_at + 5, content.size() - sum_at - 6);
  const auto stored = common::parse_int<std::uint64_t, 16>(hex);
  if (!stored) return std::nullopt;
  common::Checksum64 sum;
  sum.update_bytes(content.data(), sum_at);
  if (sum.digest() != *stored) return std::nullopt;

  std::vector<std::pair<std::string, std::string>> kv;
  std::size_t pos = 0;
  while (pos < sum_at) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos || eol > sum_at) eol = sum_at;
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return std::nullopt;
    kv.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  return kv;
}

}  // namespace chopper::ckpt
