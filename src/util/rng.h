// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component (arrivals, turn choices, attacker placement,
// network loss) draws from its own `Rng` seeded from the scenario seed, so
// adding a new consumer never perturbs existing streams.
#pragma once

#include <cstdint>
#include <vector>

namespace nwade {

/// xoshiro256** PRNG seeded via SplitMix64. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p.
  bool chance(double p);

  /// Exponential inter-arrival sample with the given rate (events per unit).
  double exponential(double rate);

  /// Poisson-distributed count with the given mean (Knuth / inversion mix).
  int poisson(double mean);

  /// Standard normal via Box–Muller.
  double normal(double mean, double stddev);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Derives an independent child stream; stable for a given (seed, salt).
  Rng fork(std::uint64_t salt) const;

  /// Serialized generator position: the four xoshiro words plus the original
  /// seed. Both parts must survive a checkpoint — fork() derives children
  /// from the seed, while the words carry the stream's current position.
  struct State {
    std::uint64_t s[4]{};
    std::uint64_t seed{0};
  };
  State state() const;
  void set_state(const State& st);

  /// Field list: the State, words first.
  template <class Ar, class Self> static void io(Ar& ar, Self& rng) {
    State st = rng.state();
    for (std::uint64_t& word : st.s) ar.u64(word);
    ar.u64(st.seed);
    if constexpr (Ar::kReading) rng.set_state(st);
  }

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;
};

}  // namespace nwade
