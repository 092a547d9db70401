// The engine's batched data plane (DESIGN.md §13): single-pass radix
// shuffle scatter, map-side combine, and the reduce-side wide merges.
//
// Everything here operates on the SoA Partition arena, runs sequentially on
// the calling task's thread (the engine's parallelism is one task per
// partition, DESIGN.md §18), and is bit-identical with the historical
// per-record implementations:
//  * scatter preserves per-bucket encounter order;
//  * combine/reduce initialize each key's accumulator from its first
//    encounter and apply the reduce fn in encounter order, then emit in
//    ascending key order — exactly the sequence the old hash-map +
//    sorted-keys code produced;
//  * merges emit the same deterministic key order std::map iteration gave.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/dataset.h"
#include "engine/partition.h"
#include "engine/partitioner.h"

namespace chopper::engine::dataplane {

/// Task size (input records) that perfbench's partition-size report flags:
/// the size at which a single task's data-plane work starts to dominate its
/// fixed per-task costs.
inline constexpr std::size_t kParallelGrain = 4096;

/// Single-pass radix shuffle write: compute every record's bucket once,
/// histogram record/payload counts, reserve each destination exactly, then
/// scatter. Appends to `buckets` preserving the input's encounter order
/// within each bucket (bit-identical to per-record push).
void radix_scatter(const Partition& in, const Partitioner& part,
                   std::span<Partition> buckets);

/// Map-side combine + scatter for reduceByKey: pre-merges `in` per key with
/// `fn` before anything reaches the shuffle, appending each bucket's
/// combined records in ascending key order. One pass over the input through
/// a single open-addressing key table (a key's bucket is a function of the
/// key, so one table serves every bucket): accumulators initialize from the
/// key's first encounter and `fn` applies in encounter order — the same
/// sequence (and therefore the same floats) as the historical per-bucket
/// unordered_map implementation. The distinct keys are then bucketed and
/// sorted once.
void combine_scatter(const Partition& in, const Partitioner& part,
                     const ReduceFn& fn, std::span<Partition> buckets);

// -- reduce-side wide merges (start of the consuming stage) ------------------

/// reduceByKey merge: k-way merge of key-sorted inputs (what
/// combine_scatter emits), else a sort-based run scan over the concatenated
/// inputs; emits one record per key in ascending key order. No hash map, no
/// second per-key lookup.
Partition merge_reduce_by_key(std::vector<Partition>&& parts,
                              const ReduceFn& fn);

/// groupByKey merge: concatenates every key's payload values (and sums
/// aux_bytes) in encounter order, emitting ascending by key.
Partition merge_group_by_key(std::vector<Partition>&& parts);

/// join / cogroup merge over the ascending union of both sides' keys.
Partition merge_join(Partition&& left, Partition&& right, const JoinFn& fn,
                     bool cogroup);

/// Plain concatenation (repartition / union).
Partition merge_concat(std::vector<Partition>&& parts);

/// Concatenation + stable sort by key (sortByKey).
Partition merge_sorted(std::vector<Partition>&& parts);

}  // namespace chopper::engine::dataplane
