// Figure-preset registry: `ofar_run --preset NAME` runs any entry of this
// table. A
// preset turns its CLI into one or more PresetUnits — an ExperimentSpec (or
// a bespoke point list for the figures that are not a pure cross product)
// plus a renderer — and run_units() executes all units' points through the
// orchestrator in a single batch (shared cache, shared worker pool, one
// resume journal), then renders each unit's tables and CSVs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/orchestrator.hpp"
#include "core/spec.hpp"

namespace ofar::bench {

struct PresetUnit {
  ExperimentSpec spec;
  std::vector<RunPoint> points;
  /// Renderer over this unit's slice of outcomes (parallel to `points`).
  /// Null selects the generic per-kind renderer render_spec(), which
  /// reproduces the historical figure output bit-for-bit.
  std::function<void(const PresetUnit&, const std::vector<PointOutcome>&,
                     const BenchOptions&)>
      render;
};

struct PresetRun {
  BenchOptions opts;
  std::string banner;  ///< printed before execution (newline-terminated)
  std::vector<PresetUnit> units;
  bool ok = true;  ///< false after a CLI error (already reported)
};

struct Preset {
  const char* name;
  const char* summary;
  PresetRun (*make)(const CommandLine& cli);
};

const std::vector<Preset>& presets();
const Preset* find_preset(const std::string& name);

/// Generic renderer for spec-shaped units: steady figures print/dump the
/// latency+throughput+detail trio, transient figures one table per
/// transition, burst figures the normalised-completion table.
void render_spec(const PresetUnit& unit,
                 const std::vector<PointOutcome>& outcomes,
                 const BenchOptions& opts);

/// Executes all units' points in one orchestrator batch and renders each
/// unit. Returns a process exit code: 0 on a complete run, 130 when a stop
/// condition interrupted the sweep (nothing is rendered; rerun to resume).
int run_units(const std::vector<PresetUnit>& units, const BenchOptions& opts,
              const std::string& banner);

/// Installs the SIGINT handler and returns the stop flag it raises, so any
/// driver can offer graceful interruption + journal-based resume.
const std::atomic<bool>* install_sigint_stop();

/// Result cache used when the user passed neither --cache-dir nor
/// --no-cache.
inline constexpr const char* kDefaultCacheDir = ".ofar-cache";

/// Entry point of `ofar_run --preset`: parses the CLI, builds the preset,
/// runs it.
int run_preset_main(const std::string& name, int argc, char** argv);

}  // namespace ofar::bench
