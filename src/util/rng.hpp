// Deterministic random number generation.
//
// Every stochastic component (demand, car-following noise, channel loss,
// seed placement) draws from its own Rng stream derived from a master seed
// plus a component tag, so (a) runs are reproducible bit-for-bit, and
// (b) parameter sweeps executed on the thread pool are order-independent.
//
// Generator: xoshiro256** (Blackman & Vigna), seeded via SplitMix64 — the
// standard recommendation for simulation workloads; much faster than
// std::mt19937_64 and with better statistical behaviour than minstd.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/assert.hpp"

namespace ivc::util {

// SplitMix64 step; used for seeding and for hashing tags into seeds.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Combine a seed with a string tag (e.g. "demand", "channel") to derive
// independent streams.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master, std::string_view tag);
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master, std::uint64_t salt);

// Counter-based draw: the i-th value of the stream keyed by `key`. This is
// SplitMix64 evaluated at state key + (counter+1)*gamma — a pure function
// of (key, counter), so draw #i of a stream has the same value no matter
// which other streams drew before it, on which thread, in which order.
// That property is what makes the engine's per-lane phases independent of
// the order lanes are stepped in: per-entity streams replace the shared
// sequential generator on every draw site a lane's update can reach.
[[nodiscard]] constexpr std::uint64_t counter_mix(std::uint64_t key, std::uint64_t counter) {
  std::uint64_t z = key + (counter + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace detail {
// Lemire's nearly-divisionless bounded generation, shared by Rng and
// StreamRng (rejection loop keeps it exact).
template <typename Gen>
[[nodiscard]] std::uint64_t bounded_index(Gen& gen, std::uint64_t n) {
  IVC_ASSERT(n > 0);
  std::uint64_t x = gen.next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = gen.next();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}
}  // namespace detail

// A counter-based stream: (key, counter) fully determine every draw, so
// two StreamRngs with the same key replay the same sequence regardless of
// interleaving with any other generator. Copyable 16-byte value type —
// resume a suspended stream by constructing from (key(), draws()).
class StreamRng {
 public:
  using result_type = std::uint64_t;

  explicit StreamRng(std::uint64_t key, std::uint64_t start_counter = 0)
      : key_(key), counter_(start_counter) {}

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }
  std::uint64_t next() { return counter_mix(key_, counter_++); }

  // Uniform double in [0, 1): 53 high bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) {
    IVC_ASSERT(lo <= hi);
    return lo + (hi - lo) * uniform();
  }
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }
  std::uint64_t uniform_index(std::uint64_t n) { return detail::bounded_index(*this, n); }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    IVC_ASSERT(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_index(span));
  }

  [[nodiscard]] std::uint64_t key() const { return key_; }
  // Draws consumed so far; persist this to suspend/resume the stream.
  [[nodiscard]] std::uint64_t draws() const { return counter_; }

 private:
  std::uint64_t key_;
  std::uint64_t counter_;
};

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  // The hot draws are inline: Dijkstra edge jitter, IDM noise and channel
  // trials call these millions of times per second, and an out-of-line
  // call per draw was measurable at city scale.
  std::uint64_t next() {
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

  // Uniform double in [0, 1): 53 high bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    IVC_ASSERT(lo <= hi);
    return lo + (hi - lo) * uniform();
  }
  // Bernoulli trial.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }
  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Standard normal via Marsaglia polar method (cached spare).
  double normal(double mean = 0.0, double stddev = 1.0);
  // Exponential with given rate (mean 1/rate); used for Poisson arrivals.
  double exponential(double rate);

  // Fisher-Yates shuffle.
  template <typename RandomIt>
  void shuffle(RandomIt first, RandomIt last) {
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
      const std::uint64_t j = uniform_index(i);
      using std::swap;
      swap(first[i - 1], first[j]);
    }
  }

  // Split off an independent child stream (for per-vehicle / per-edge noise).
  [[nodiscard]] Rng split();

  // ---- serialization (snapshot/restore) ------------------------------------
  // The complete generator state: the xoshiro words plus the Marsaglia
  // spare. Restoring it resumes the exact draw sequence, which is what the
  // serve-layer snapshot needs to make restore-then-continue bit-identical.
  struct State {
    std::uint64_t s[4];
    double spare_normal = 0.0;
    bool has_spare_normal = false;
  };
  [[nodiscard]] State state() const {
    return State{{s_[0], s_[1], s_[2], s_[3]}, spare_normal_, has_spare_normal_};
  }
  void set_state(const State& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    spare_normal_ = st.spare_normal;
    has_spare_normal_ = st.has_spare_normal;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace ivc::util
