// Resume planning (DESIGN.md §16): decode a checkpoint directory's newest
// WAL segment back into an engine::ResumeLedger.
//
// The planner applies the commit rule (a stage is committed iff its complete
// kStageEnd line is durable): for every job in the log it reconstructs the
// contiguous committed-stage prefix — kStageEnd rows plus their buffered
// kTaskSpan events, bit-exact via obs::stage_from_event — and loads the
// stage's block files (shuffles in kShuffleWrite order, caches in kBlockStore
// order, the result file when present). A torn final line is the normal
// post-crash state and is tolerated; any missing or checksum-failing block
// file flips that job to `full_rerun`, which the engine executes
// deterministically for a bit-identical outcome. The planner never guesses:
// a job either adopts a provably clean prefix or re-runs from scratch.
#pragma once

#include <cstdint>
#include <string>

#include "engine/resume.h"

namespace chopper::ckpt {

struct ResumePlan {
  engine::ResumeLedger ledger;
  std::string wal;                ///< path of the segment that was decoded
  std::size_t wal_epoch = 0;
  std::size_t events = 0;         ///< events decoded from the WAL
  std::size_t torn_tail_lines = 0;
  /// Malformed lines plus job events whose job id is out of range.
  std::size_t skipped_lines = 0;
  std::size_t committed_stages = 0;  ///< across all jobs
  std::size_t finished_jobs = 0;
  std::uint64_t restored_bytes = 0;  ///< block payload bytes loaded
};

/// Decode checkpoint directory `dir`. Throws std::runtime_error when the
/// directory holds no WAL segment (not a checkpoint directory) or the
/// newest segment is unreadable.
ResumePlan build_resume_plan(const std::string& dir);

}  // namespace chopper::ckpt
