// Seed-deterministic random generator: the one SplitMix64 of the repository.
// The fuzzing harness, loadgen pacing, chaos schedules, retry jitter and the
// bootstrap CIs of the bench statistics all draw from it. Header-only, so
// including it adds no link dependency.
//
// The whole check subsystem promises byte-identical behavior for a given
// --seed across platforms, thread counts, and standard libraries, so this is
// a fully specified SplitMix64 (Steele/Lea/Flood, JDK 8) rather than
// std::mt19937 + distributions (whose outputs are implementation-defined).
// Every fuzz iteration derives its own independent stream with `fork`, which
// is what lets the driver fan iterations out across the parallel engine
// without any cross-iteration state.
#pragma once

#include <cstdint>

namespace asimt::check {

class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed) : state_(seed) {}

  // One SplitMix64 step on a state word the caller keeps.
  static constexpr std::uint64_t step(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  // Next 64 uniform bits.
  constexpr std::uint64_t next() { return step(state_); }

  // Uniform double in (0, 1]: never 0, so -log() is finite.
  constexpr double next_unit() {
    return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740993.0;
  }

  // Uniform in [0, bound); bound == 0 yields 0. Simple modulo: the bias for
  // the small bounds used here (< 2^20) is far below anything a fuzzer
  // cares about, and the arithmetic is identical everywhere.
  constexpr std::uint64_t below(std::uint64_t bound) {
    return bound == 0 ? 0 : next() % bound;
  }

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  constexpr int range(int lo, int hi) {
    return lo + static_cast<int>(below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  // True with probability num/den.
  constexpr bool chance(std::uint64_t num, std::uint64_t den) {
    return below(den) < num;
  }

  // An independent generator whose stream is a pure function of (this
  // generator's seed, label) — the per-iteration fork used by the driver.
  constexpr Rng fork(std::uint64_t label) const {
    Rng child(state_ ^ (0xA5A5A5A55A5A5A5Aull + label * 0x2545F4914F6CDD1Dull));
    child.next();  // decorrelate adjacent labels
    return child;
  }

 private:
  std::uint64_t state_;
};

}  // namespace asimt::check
