// Deterministic pseudo-random number generation used across the library.
//
// All stochastic components (schedulers, the randomized interpreters, the
// noise generators) take an explicit Rng so that every experiment is
// reproducible from a seed. We use SplitMix64 for seeding and a
// xoshiro256** core: fast, high quality, and trivially copyable so
// simulations can be forked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace ppde::support {

/// One SplitMix64 step: advances `x` by the golden-ratio increment and
/// returns the mixed output. The seed expander behind Rng::reseed and the
/// per-trial / per-stream seed derivation below — one definition, so the
/// engine, serve and sched layers cannot drift apart.
inline std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The (trial+1)-th element of the SplitMix64 stream anchored at
/// `master_seed`: trial i always gets the same decorrelated 64-bit seed no
/// matter which worker (thread or process) runs it, so every ensemble,
/// certificate and shard layout is reproducible from one number. Also used
/// with fixed stream tags to split one trial seed into independent
/// scheduler/topology/fault RNG streams (sched/scenario.hpp).
inline std::uint64_t derive_trial_seed(std::uint64_t master_seed,
                                       std::uint64_t trial) {
  std::uint64_t x = master_seed + trial * 0x9e3779b97f4a7c15ULL;
  return splitmix64(x);
}

/// xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialise the state from a single 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0. Lemire's debiased
  /// multiply-shift rejection method; inline — it sits on the per-meeting
  /// hot path of every scheduler.
  std::uint64_t below(std::uint64_t bound) {
    std::uint64_t x = operator()();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = operator()();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli draw with probability num/den. Requires den > 0.
  bool chance(std::uint64_t num, std::uint64_t den) {
    return below(den) < num;
  }

  /// Fair coin flip.
  bool coin() { return (operator()() >> 63) != 0; }

  /// Advance the state by 2^128 outputs (the canonical xoshiro256** jump
  /// polynomial). Gives non-overlapping substreams from one seed when a
  /// caller wants many generators without per-stream reseeding. The
  /// engine's trial seeding stays on derive_trial_seed — jump() serves
  /// callers that need provably disjoint streams from a *shared* state.
  void jump();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

/// Map a raw 64-bit draw onto the open-below unit interval (0, 1]:
/// 53-bit mantissa shifted off zero so log(u) is finite. This is the
/// engine's geometric null-skip draw — the exact expression matters for
/// bit-identicality, so it lives here once instead of being re-derived
/// per call site.
inline double to_unit_open(std::uint64_t raw) {
  return (static_cast<double>(raw >> 11) + 1.0) * 0x1.0p-53;
}

/// Map a raw 64-bit draw onto [0, 1): the sched layer's uniform01.
inline double to_unit(std::uint64_t raw) {
  return static_cast<double>(raw >> 11) * 0x1.0p-53;
}

}  // namespace ppde::support
