// Common command-line surface for the bench programs that emit the shared
// JSON envelope: ablation_controllers, parallel_rig and perf_dataplane. The
// other figure and ablation benches use a plain util/flags FlagSet, and
// micro_dataplane uses google-benchmark's own flags. A BenchCli bench gets
// one option set on top of util/flags:
//
//   --json <path>   write a machine-readable result summary (JSON envelope
//                   {schema, bench, quick, seed, metrics:{...}})
//   --quick         scaled-down run for smoke tests / CI (each bench defines
//                   what "quick" means for its workload)
//   --seed <n>      simulation seed
//
// Bench-specific flags are registered through flags(). The JSON envelope is
// written via write_json(), which hands the caller a JsonWriter positioned
// inside the "metrics" object so every bench emits the same outer schema.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/flags.h"
#include "util/json.h"

namespace inband {

class BenchCli {
 public:
  inline static constexpr const char* kSchema = "inband-bench-v1";

  BenchCli(std::string bench_name, std::string description,
           std::int64_t default_seed = 2022);

  // Register bench-specific flags before parse().
  FlagSet& flags() { return flags_; }

  // Returns false on parse error / --help (caller should exit non-zero).
  bool parse(int argc, const char* const* argv);

  bool quick() const { return quick_; }
  std::int64_t seed() const { return seed_; }
  const std::string& json_path() const { return json_path_; }

  // Pre-loads a default --json path (call before parse()).
  void set_json_default(std::string path) { json_path_ = std::move(path); }

  // Writes the common JSON envelope to --json (no-op when the flag is
  // unset). `fill` receives a writer inside the "metrics" object. Returns
  // false when the file cannot be written.
  bool write_json(const std::function<void(JsonWriter&)>& fill) const;

 private:
  std::string bench_name_;
  FlagSet flags_;
  std::string json_path_;
  bool quick_ = false;
  std::int64_t seed_;
};

}  // namespace inband
