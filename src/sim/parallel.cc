#include "sim/parallel.h"

#include <cstddef>
#include <thread>
#include <utility>

#include "util/assert.h"
#include "util/rng.h"

namespace inband {

namespace {

// One worker's loop: sweep the owned programs, advancing and publishing each
// live one, until all are done. A sweep with no progress anywhere means this
// worker is conservatively blocked on neighbors — yield rather than spin hot.
void worker_loop(const std::vector<ShardProgram*>& mine) {
  std::vector<char> finished(mine.size(), 0);
  std::size_t remaining = mine.size();
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (finished[i] != 0) continue;
      ShardProgram& p = *mine[i];
      if (p.advance()) progressed = true;
      p.publish();
      if (p.done()) {
        // The publish above carried the final (past-the-end) frontier, so
        // neighbors blocked on this shard are already released.
        finished[i] = 1;
        --remaining;
        progressed = true;
      }
    }
    if (!progressed) std::this_thread::yield();
  }
}

}  // namespace

void run_shard_programs(const std::vector<ShardProgram*>& programs,
                        int workers, std::uint64_t sched_seed) {
  INBAND_ASSERT(workers >= 1, "need at least one worker");
  if (programs.empty()) return;

  std::vector<std::size_t> order(programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (sched_seed != 0) {
    // Fisher–Yates with the repo RNG: the seed only moves programs between
    // workers; results must not change (asserted in test_parallel.cc).
    Rng rng{sched_seed};
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_u64(0, i - 1)]);
    }
  }
  // Contiguous blocks: ring neighbours share a worker, so most channel
  // traffic stays on one thread and fewer shards wait on another worker.
  const std::size_t n = order.size();
  const auto w = static_cast<std::size_t>(workers);
  std::vector<std::vector<ShardProgram*>> assigned(w);
  for (std::size_t i = 0; i < n; ++i) {
    assigned[i * w / n].push_back(programs[order[i]]);
  }

  if (workers == 1) {
    worker_loop(assigned[0]);  // oracle path: no threads at all
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(assigned.size());
  for (const auto& mine : assigned) {
    if (mine.empty()) continue;
    pool.emplace_back([&mine] { worker_loop(mine); });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace inband
