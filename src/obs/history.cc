#include "obs/history.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "common/parse.h"
#include "obs/jsonl.h"

namespace chopper::obs {

namespace {

// The shared stage/job telemetry counters, encoded and decoded once for
// kStageEnd and kJobFinish.
void put_counters(const engine::TelemetryCounters& c, Event& e) {
  e.recomputed_tasks = c.recomputed_tasks;
  e.recomputed_bytes = c.recomputed_bytes;
  e.recovery_time_s = c.recovery_time_s;
  e.fetch_retries = c.fetch_retries;
  e.refetched_bytes = c.refetched_bytes;
  e.checksum_failures = c.checksum_failures;
  e.node_exclusions = c.node_exclusions;
  e.oom_count = c.oom_count;
  e.evicted_bytes = c.evicted_bytes;
  e.spilled_bytes = c.spilled_bytes;
  e.peak_resident_bytes = c.peak_resident_bytes;
  e.cache_hits = c.cache_hits;
  e.cache_misses = c.cache_misses;
  e.recompute_saved_bytes = c.recompute_saved_bytes;
  e.evictions_lru = c.evictions_lru;
  e.evictions_cost = c.evictions_cost;
}

void get_counters(const Event& e, engine::TelemetryCounters& c) {
  c.recomputed_tasks = static_cast<std::size_t>(e.recomputed_tasks);
  c.recomputed_bytes = e.recomputed_bytes;
  c.recovery_time_s = e.recovery_time_s;
  c.fetch_retries = static_cast<std::size_t>(e.fetch_retries);
  c.refetched_bytes = e.refetched_bytes;
  c.checksum_failures = static_cast<std::size_t>(e.checksum_failures);
  c.node_exclusions = static_cast<std::size_t>(e.node_exclusions);
  c.oom_count = static_cast<std::size_t>(e.oom_count);
  c.evicted_bytes = e.evicted_bytes;
  c.spilled_bytes = e.spilled_bytes;
  c.peak_resident_bytes = e.peak_resident_bytes;
  c.cache_hits = static_cast<std::size_t>(e.cache_hits);
  c.cache_misses = static_cast<std::size_t>(e.cache_misses);
  c.recompute_saved_bytes = e.recompute_saved_bytes;
  c.evictions_lru = static_cast<std::size_t>(e.evictions_lru);
  c.evictions_cost = static_cast<std::size_t>(e.evictions_cost);
}

}  // namespace

Event task_to_event(const engine::StageMetrics& sm, std::size_t plan_index,
                    const engine::TaskMetrics& tm) {
  Event e;
  e.kind = EventKind::kTaskSpan;
  e.job = sm.job_id;
  e.stage = sm.stage_id;
  e.plan_index = plan_index;
  e.task = tm.task_index;
  e.node = tm.node;
  e.slot = tm.slot;
  e.attempt = tm.attempts;
  e.fetch_retries = tm.fetch_retries;
  e.t_start = tm.sim_start;
  e.t_end = tm.sim_end;
  e.compute_s = tm.compute_s;
  e.fetch_s = tm.fetch_s;
  e.records_in = tm.records_in;
  e.records_out = tm.records_out;
  e.bytes_in = tm.bytes_in;
  e.bytes_out = tm.bytes_out;
  e.shuffle_read_remote = tm.shuffle_read_remote;
  e.shuffle_read_local = tm.shuffle_read_local;
  if (tm.shuffle_read_remote > 0) e.flags |= kFlagRemoteFetch;
  if (tm.shuffle_read_local > 0) e.flags |= kFlagLocalFetch;
  if (tm.spilled_bytes > 0) e.flags |= kFlagSpilled;
  e.spilled_bytes = tm.spilled_bytes;
  return e;
}

engine::TaskMetrics task_from_event(const Event& e) {
  engine::TaskMetrics tm;
  tm.task_index = static_cast<std::size_t>(e.task);
  tm.node = static_cast<std::size_t>(e.node);
  tm.slot = e.slot == kNoId ? 0 : static_cast<std::size_t>(e.slot);
  tm.sim_start = e.t_start;
  tm.sim_end = e.t_end;
  tm.compute_s = e.compute_s;
  tm.fetch_s = e.fetch_s;
  tm.attempts = static_cast<std::size_t>(e.attempt);
  tm.fetch_retries = static_cast<std::size_t>(e.fetch_retries);
  tm.records_in = e.records_in;
  tm.records_out = e.records_out;
  tm.bytes_in = e.bytes_in;
  tm.bytes_out = e.bytes_out;
  tm.shuffle_read_remote = e.shuffle_read_remote;
  tm.shuffle_read_local = e.shuffle_read_local;
  tm.spilled_bytes = e.spilled_bytes;
  return tm;
}

Event stage_to_event(const engine::StageMetrics& sm, std::size_t plan_index) {
  Event e;
  e.kind = EventKind::kStageEnd;
  e.job = sm.job_id;
  e.stage = sm.stage_id;
  e.plan_index = plan_index;
  e.signature = sm.signature;
  e.name = sm.name;
  if (sm.is_shuffle_map) e.flags |= kFlagShuffleMap;
  if (sm.fixed_partitions) e.flags |= kFlagFixedPartitions;
  if (sm.user_fixed) e.flags |= kFlagUserFixed;
  e.num_partitions = sm.num_partitions;
  e.partitioner = static_cast<std::uint64_t>(sm.partitioner);
  e.anchor_op = static_cast<std::uint64_t>(sm.anchor_op);
  e.list = sm.parent_signatures;
  e.records_in = sm.input_records;
  e.bytes_in = sm.input_bytes;
  e.records_out = sm.output_records;
  e.bytes_out = sm.output_bytes;
  e.shuffle_read_bytes = sm.shuffle_read_bytes;
  e.shuffle_write_bytes = sm.shuffle_write_bytes;
  e.attempt = sm.attempt_count;
  put_counters(sm, e);
  e.list2.assign(sm.oomed_partition_counts.begin(),
                 sm.oomed_partition_counts.end());
  e.sim_time_s = sm.sim_time_s;
  e.sim_start_s = sm.sim_start_s;
  e.wall_time_s = sm.wall_time_s;
  return e;
}

engine::StageMetrics stage_from_event(const Event& e,
                                      std::vector<engine::TaskMetrics> tasks) {
  engine::StageMetrics sm;
  sm.stage_id = static_cast<std::size_t>(e.stage);
  sm.job_id = static_cast<std::size_t>(e.job);
  sm.signature = e.signature;
  sm.name = e.name;
  sm.is_shuffle_map = (e.flags & kFlagShuffleMap) != 0;
  sm.num_partitions = static_cast<std::size_t>(e.num_partitions);
  sm.partitioner = static_cast<engine::PartitionerKind>(e.partitioner);
  sm.anchor_op = static_cast<engine::OpKind>(e.anchor_op);
  sm.parent_signatures = e.list;
  sm.fixed_partitions = (e.flags & kFlagFixedPartitions) != 0;
  sm.user_fixed = (e.flags & kFlagUserFixed) != 0;
  sm.input_records = e.records_in;
  sm.input_bytes = e.bytes_in;
  sm.output_records = e.records_out;
  sm.output_bytes = e.bytes_out;
  sm.shuffle_read_bytes = e.shuffle_read_bytes;
  sm.shuffle_write_bytes = e.shuffle_write_bytes;
  sm.attempt_count = static_cast<std::size_t>(e.attempt);
  get_counters(e, sm);
  sm.oomed_partition_counts.assign(e.list2.begin(), e.list2.end());
  sm.sim_time_s = e.sim_time_s;
  sm.sim_start_s = e.sim_start_s;
  sm.wall_time_s = e.wall_time_s;
  sm.tasks = std::move(tasks);
  return sm;
}

Event job_to_event(const engine::JobMetrics& jm) {
  Event e;
  e.kind = EventKind::kJobFinish;
  e.job = jm.job_id;
  e.name = jm.name;
  e.sim_time_s = jm.sim_time_s;
  e.wall_time_s = jm.wall_time_s;
  e.list.assign(jm.stage_ids.begin(), jm.stage_ids.end());
  if (jm.failed) e.flags |= kFlagFailed;
  e.detail = jm.error;
  e.stage_attempts = jm.stage_attempts;
  e.lost_bytes = jm.lost_bytes;
  put_counters(jm, e);
  e.resumed_stages = jm.resumed_stages;
  e.replayed_events = jm.replayed_events;
  e.restored_bytes = jm.restored_bytes;
  e.recovery_wall_s = jm.recovery_wall_s;
  return e;
}

engine::JobMetrics job_from_event(const Event& e) {
  engine::JobMetrics jm;
  jm.job_id = static_cast<std::size_t>(e.job);
  jm.name = e.name;
  jm.sim_time_s = e.sim_time_s;
  jm.wall_time_s = e.wall_time_s;
  jm.stage_ids.assign(e.list.begin(), e.list.end());
  jm.failed = (e.flags & kFlagFailed) != 0;
  jm.error = e.detail;
  jm.stage_attempts = static_cast<std::size_t>(e.stage_attempts);
  jm.lost_bytes = e.lost_bytes;
  get_counters(e, jm);
  jm.resumed_stages = static_cast<std::size_t>(e.resumed_stages);
  jm.replayed_events = e.replayed_events;
  jm.restored_bytes = e.restored_bytes;
  jm.recovery_wall_s = e.recovery_wall_s;
  return jm;
}

HistoryReader::HistoryReader(std::vector<Event> events)
    : events_(std::move(events)) {
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
}

HistoryReader HistoryReader::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open event log: " + path);
  std::string content;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);

  std::vector<Event> events;
  std::size_t skipped = 0;
  std::size_t skipped_unknown = 0;
  std::size_t torn_tail = 0;
  bool saw_header = false;
  std::size_t pos = 0;
  bool first = true;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    const bool newline_terminated = eol != std::string::npos;
    if (!newline_terminated) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (parse_jsonl_header(line)) {
        saw_header = true;
        continue;
      }
    }
    bool unknown_kind = false;
    if (auto e = from_jsonl(line, &unknown_kind)) {
      events.push_back(std::move(*e));
    } else if (unknown_kind) {
      ++skipped_unknown;  // newer log: skip the record, keep the rest
    } else if (!newline_terminated) {
      // A final line with no trailing newline that does not parse is a torn
      // write — the normal tail of a crashed process's log, not corruption.
      ++torn_tail;
    } else {
      ++skipped;
    }
  }
  if (!saw_header) {
    throw common::ParseError(path +
                             ": not a chopper event log (missing header)");
  }
  HistoryReader r(std::move(events));
  r.skipped_ = skipped;
  r.skipped_unknown_ = skipped_unknown;
  r.torn_tail_ = torn_tail;
  return r;
}

void HistoryReader::replay_into(engine::MetricsRegistry& registry) const {
  std::unordered_map<std::uint64_t, std::vector<engine::TaskMetrics>> spans;
  for (const Event& e : events_) {
    switch (e.kind) {
      case EventKind::kTaskSpan:
        spans[e.stage].push_back(task_from_event(e));
        break;
      case EventKind::kStageEnd: {
        auto it = spans.find(e.stage);
        std::vector<engine::TaskMetrics> tasks;
        if (it != spans.end()) {
          tasks = std::move(it->second);
          spans.erase(it);
        }
        registry.add_stage(stage_from_event(e, std::move(tasks)));
        break;
      }
      case EventKind::kJobFinish:
        registry.add_job(job_from_event(e));
        break;
      default:
        break;
    }
  }
}

std::vector<engine::StageMetrics> HistoryReader::stages() const {
  engine::MetricsRegistry reg;
  replay_into(reg);
  return reg.stages();
}

std::vector<engine::JobMetrics> HistoryReader::jobs() const {
  engine::MetricsRegistry reg;
  replay_into(reg);
  return reg.jobs();
}

std::vector<std::size_t> HistoryReader::cluster_cores() const {
  for (const Event& e : events_) {
    if (e.kind == EventKind::kClusterInfo) {
      return std::vector<std::size_t>(e.list.begin(), e.list.end());
    }
  }
  return {};
}

std::vector<std::uint64_t> HistoryReader::cluster_memory() const {
  for (const Event& e : events_) {
    if (e.kind == EventKind::kClusterInfo) return e.list2;
  }
  return {};
}

std::size_t HistoryReader::for_each_ingest(const IngestFn& fn) const {
  engine::MetricsRegistry run;
  std::unordered_map<std::uint64_t, std::vector<engine::TaskMetrics>> spans;
  std::size_t markers = 0;
  for (const Event& e : events_) {
    switch (e.kind) {
      case EventKind::kTaskSpan:
        spans[e.stage].push_back(task_from_event(e));
        break;
      case EventKind::kStageEnd: {
        auto it = spans.find(e.stage);
        std::vector<engine::TaskMetrics> tasks;
        if (it != spans.end()) {
          tasks = std::move(it->second);
          spans.erase(it);
        }
        run.add_stage(stage_from_event(e, std::move(tasks)));
        break;
      }
      case EventKind::kJobFinish:
        run.add_job(job_from_event(e));
        break;
      case EventKind::kCollectorIngest:
        ++markers;
        fn(run, e.name, e.value, (e.flags & kFlagDefaultRun) != 0);
        run.clear();
        break;
      default:
        break;
    }
  }
  return markers;
}

}  // namespace chopper::obs
