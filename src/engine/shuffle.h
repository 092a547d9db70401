// Shuffle manager: stores map-side bucketed output between stages.
//
// A ShuffleMapStage with M tasks writing for a consumer with R partitions
// produces an M x R grid of buckets. Byte accounting adds a fixed header per
// non-empty bucket segment (serialized file framing), which is what makes
// shuffle volume grow with the partition count (paper Fig. 4). When the
// writer's output is already partitioned by an equal partitioner, the write
// degenerates to a pass-through (bucket r == map index m) with no headers
// and purely local reads — the co-partitioning fast path CHOPPER exploits.
//
// Fault tolerance: each map task's bucket row lives on the node that ran the
// task (`map_node`). When a node dies, `invalidate_node` drops every bucket
// row that node held and marks the map task lost; consuming stages detect
// the loss (a fetch failure) and the scheduler replays the producer's
// lineage for exactly the lost map tasks (see scheduler.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "engine/fault.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/partitioner.h"

namespace chopper::obs {
class EventLog;
}

namespace chopper::engine {

struct ShuffleOutput {
  std::size_t shuffle_id = 0;
  std::shared_ptr<Partitioner> partitioner;  ///< reducer-side scheme
  std::size_t num_map_tasks = 0;
  /// buckets[m][r]: records map task m produced for reduce partition r.
  std::vector<std::vector<Partition>> buckets;
  /// node that executed map task m (for local-vs-remote fetch accounting).
  std::vector<std::size_t> map_node;
  /// lost[m]: map task m's output was on a node that died; its bucket row
  /// has been dropped and must be recomputed from lineage before any
  /// consumer can read it. Empty vector == nothing lost.
  std::vector<char> lost;
  /// on_disk[m]: map task m's bucket row was spilled to the node's simulated
  /// disk tier under memory pressure — the records are still there (reads
  /// work, at disk bandwidth) but the row no longer counts as resident.
  /// Empty vector == nothing spilled.
  std::vector<char> on_disk;
  /// Per-map-row integrity checksums: row_sum[m] digests every bucket of
  /// row m (recorded at publish, recomputed after heals/re-bucketing).
  /// Empty vector == checksums off (no corruptions injected).
  std::vector<std::uint64_t> row_sum;
  std::uint64_t total_bytes = 0;  ///< includes per-bucket headers
  bool passthrough = false;       ///< co-partitioned: no real shuffle happened

  bool has_lost_tasks() const noexcept {
    for (const char l : lost) {
      if (l) return true;
    }
    return false;
  }
  bool row_on_disk(std::size_t m) const noexcept {
    return !on_disk.empty() && on_disk[m];
  }
  /// Record bytes of map row m (no framing headers).
  std::uint64_t row_bytes(std::size_t m) const noexcept {
    std::uint64_t b = 0;
    for (const auto& bucket : buckets[m]) b += bucket.bytes();
    return b;
  }
  /// Recompute total_bytes: every bucket's record bytes plus
  /// `header_bytes` of framing per non-empty bucket (none for a
  /// passthrough, which frames nothing). Returns the non-empty bucket count.
  std::size_t tally_bytes(std::uint64_t header_bytes);
  /// Integrity digest of map row m (every bucket's arena checksum chained).
  std::uint64_t compute_row_sum(std::size_t m) const noexcept;
  /// (Re)record row_sum for every non-lost row; sizes row_sum on first use.
  void record_row_sums();
  /// Recompute the recorded checksum of one row (after a heal or in-place
  /// re-bucketing). No-op when checksums are off.
  void refresh_row_sum(std::size_t m) noexcept {
    if (!row_sum.empty() && m < row_sum.size()) {
      row_sum[m] = compute_row_sum(m);
    }
  }
};

class ShuffleManager {
 public:
  /// Reserve an id for a shuffle about to be written.
  std::size_t next_id();

  void put(ShuffleOutput out);

  /// Look up a stored shuffle. get_mutable is used by consuming stages:
  /// tasks move records out of their own bucket column (column p belongs
  /// exclusively to reduce task p, so no locking is needed across tasks).
  /// References stay valid until that shuffle is removed — outputs are
  /// heap-allocated, so concurrent put() calls from other jobs never move
  /// them.
  const ShuffleOutput& get(std::size_t shuffle_id) const;
  ShuffleOutput& get_mutable(std::size_t shuffle_id);

  bool contains(std::size_t shuffle_id) const;

  /// Drop a consumed shuffle's data to release memory.
  void remove(std::size_t shuffle_id);

  /// Node `node` died: drop every bucket row written by a map task that ran
  /// there and mark the task lost. Returns what was destroyed.
  LossReport invalidate_node(std::size_t node);

  /// Arm the per-node in-memory shuffle budget (raw bytes). When a node's
  /// resident rows exceed it, whole map rows are spilled oldest-shuffle
  /// first (marked on_disk; data stays readable at disk speed). Spills are
  /// reported to `ledger` with bytes multiplied by `ledger_scale`.
  void configure_budget(std::vector<std::uint64_t> per_node_capacity,
                        MemoryLedger* ledger, double ledger_scale);
  /// Re-run the spill scan (put() runs it automatically; lineage replay and
  /// adaptive repartition call it after mutating rows in place).
  void enforce_budget();

  /// In-memory (non-spilled, non-lost) row bytes on `node` (raw bytes).
  std::uint64_t resident_bytes(std::size_t node) const;

  std::size_t count() const;

  /// Structured event log for kShuffleSpill events (nullptr: none). Spills
  /// are stamped with the log's sim-time hint (the scan has no clock).
  void set_event_log(obs::EventLog* log) noexcept { event_log_ = log; }

 private:
  void enforce_locked();

  mutable std::mutex mu_;
  std::size_t next_id_ = 1;
  /// unique_ptr values: rehashing on insert must not invalidate references
  /// held by concurrently running jobs (see get/get_mutable).
  std::unordered_map<std::size_t, std::unique_ptr<ShuffleOutput>> outputs_;
  std::vector<std::uint64_t> capacity_;  ///< empty: no budget armed
  MemoryLedger* ledger_ = nullptr;
  double ledger_scale_ = 1.0;
  obs::EventLog* event_log_ = nullptr;  ///< not owned; may be null
};

}  // namespace chopper::engine
