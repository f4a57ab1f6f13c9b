// Conservative parallel shard execution.
//
// The repository's answer to "one Release core does ~2.5M events/s": the
// simulated topology is partitioned into shards (one LB + its servers — the
// ownership partition shardlint proves and commits in
// tools/detlint/partition_src.json), each shard owns a full EventQueue/
// Simulator of its own, and shards synchronize with the classic
// Chandy–Misra–Bryant conservative-lookahead protocol over their cross-shard
// links:
//
//   * every directed cross-shard link is a ShardChannel (net/shard_channel.h)
//     with a fixed positive latency L — the lookahead;
//   * a shard's *frontier* F is a lower bound on the timestamp of anything it
//     may still emit: min(next local event, every in-channel's lower bound);
//   * after each advance it announces F + L on each out-channel (the null
//     message, folded into a monotone horizon word instead of a message);
//   * a shard may freely process all work strictly below
//     min over in-channels of (head deliver time, else announced horizon) —
//     nothing that could arrive later can be earlier than that.
//
// With every L > 0 the globally earliest unprocessed work is always safe at
// its shard, so the system never deadlocks (the standard CMB argument).
// Determinism does NOT come from the schedule — workers race freely — but
// from the per-shard merge rule in ShardedRig: each shard interleaves its
// local (time, seq) event order with its cross-arrival order by a fixed
// (time, cross-before-local, channel index, channel FIFO) rule, so the
// per-shard execution sequence, and therefore every per-shard digest, is a
// pure function of the inputs, bit-identical across worker counts and
// placements (swept in tests/test_parallel.cc, raced under TSan in CI).
//
// This header is topology-agnostic: a ShardProgram is any synchronous
// program with the advance/publish/done shape, and run_shard_programs() is
// the worker pool that drives a set of them to completion.
#pragma once

#include <cstdint>
#include <vector>

namespace inband {

// One shard's synchronous program, driven by run_shard_programs(). All three
// methods are called only by the single worker that owns the program;
// cross-thread communication happens inside them, through channels.
class ShardProgram {
 public:
  virtual ~ShardProgram() = default;

  // Processes everything currently safe under the shard's conservative
  // bound. Returns true if any event ran or delivery committed (the runner
  // yields when a full sweep makes no progress).
  virtual bool advance() = 0;

  // Announces the shard's current frontier on its out-channels. Called after
  // every advance(), including the one that completes the shard — the final
  // announcement is what releases conservatively blocked neighbors.
  virtual void publish() = 0;

  // True once the shard has committed its end time: no local event at or
  // before the end remains and no in-channel can deliver at or before it.
  // A done shard is never advanced again.
  virtual bool done() const = 0;
};

// Drives the programs to completion across `workers` OS threads with a
// static assignment: program order is dealt in contiguous blocks (program i
// to worker i * workers / n), so neighbours in the order share a worker.
// `sched_seed != 0` permutes the order first: placement must affect
// wall-clock only, never results, and the tests sweep seeds to prove it.
// With workers == 1 the programs run inline on the calling thread — the
// no-thread oracle path.
void run_shard_programs(const std::vector<ShardProgram*>& programs,
                        int workers, std::uint64_t sched_seed = 0);

}  // namespace inband
