#include "engine/metrics.hpp"

#include <cmath>
#include <cstdio>

namespace ppde::engine {

void RunMetrics::merge(const RunMetrics& other) {
  meetings += other.meetings;
  firings += other.firings;
  null_skip_batches += other.null_skip_batches;
  skipped_meetings += other.skipped_meetings;
  consensus_flips += other.consensus_flips;
  weight_updates += other.weight_updates;
  wall_seconds += other.wall_seconds;
}

double RunMetrics::effective_meetings_per_second() const {
  if (wall_seconds <= 0.0) return 0.0;
  // A fast run against a wall time that rounds to a denormal sliver can
  // overflow the division; report 0 rather than inf.
  const double rate = static_cast<double>(meetings) / wall_seconds;
  return std::isfinite(rate) ? rate : 0.0;
}

std::string RunMetrics::to_string() const {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "meetings=%llu firings=%llu null_skip_batches=%llu "
                "skipped=%llu flips=%llu weight_updates=%llu wall=%.3fs",
                static_cast<unsigned long long>(meetings),
                static_cast<unsigned long long>(firings),
                static_cast<unsigned long long>(null_skip_batches),
                static_cast<unsigned long long>(skipped_meetings),
                static_cast<unsigned long long>(consensus_flips),
                static_cast<unsigned long long>(weight_updates),
                wall_seconds);
  return buffer;
}

}  // namespace ppde::engine
