// Microbenchmarks for the cryptographic substrate behind Fig. 6: SHA-256,
// HMAC, RSA sign/verify at the paper's key size, Merkle packaging, and full
// block package/verify cycles.
#include <benchmark/benchmark.h>

#include "chain/block.h"
#include "crypto/merkle.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "support.h"
#include "util/file_io.h"

namespace {

using namespace nwade;
using namespace nwade::crypto;

Bytes test_data(std::size_t size) {
  Bytes data(size);
  Rng rng(99);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return data;
}

/// Reports an "allocs_per_op" console column for a benchmark loop. Only
/// meaningful in -DNWADE_COUNT_ALLOCS=ON builds; elsewhere the counter reads
/// 0 throughout and the column shows 0 (counting is compiled out entirely).
class AllocMeter {
 public:
  void finish(benchmark::State& state) {
    const double ops = static_cast<double>(state.iterations());
    if (!nwade::util::alloc_counting_enabled() || ops <= 0) return;
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(nwade::util::thread_alloc_count() - start_) / ops);
  }

 private:
  std::uint64_t start_{nwade::util::thread_alloc_count()};
};

void BM_Sha256(benchmark::State& state) {
  const Bytes data = test_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = test_data(32);
  const Bytes data = test_data(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

const RsaKeyPair& key_of(int bits) {
  static RsaKeyPair k1024 = [] {
    Rng rng(1);
    return rsa_generate(rng, 1024);
  }();
  static RsaKeyPair k2048 = [] {
    Rng rng(2);
    return rsa_generate(rng, 2048);
  }();
  return bits == 1024 ? k1024 : k2048;
}

void BM_RsaSign(benchmark::State& state) {
  const auto& key = key_of(static_cast<int>(state.range(0)));
  const Bytes msg = test_data(512);
  AllocMeter allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(key.priv, msg));
  }
  allocs.finish(state);
}
BENCHMARK(BM_RsaSign)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

/// The steady-state signer shape: CRT Montgomery contexts built once, each
/// call pays only the two half-size modexps.
void BM_RsaSignContext(benchmark::State& state) {
  const auto& key = key_of(static_cast<int>(state.range(0)));
  const RsaSignContext ctx(key.priv);
  const Bytes msg = test_data(512);
  AllocMeter allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.sign(msg));
  }
  allocs.finish(state);
}
BENCHMARK(BM_RsaSignContext)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_RsaVerify(benchmark::State& state) {
  const auto& key = key_of(static_cast<int>(state.range(0)));
  const Bytes msg = test_data(512);
  const Bytes sig = rsa_sign(key.priv, msg);
  AllocMeter allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify(key.pub, msg, sig));
  }
  allocs.finish(state);
}
BENCHMARK(BM_RsaVerify)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) leaves.push_back(test_data(120));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(2)->Arg(16)->Arg(128);

void BM_MerkleProveVerify(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 64; ++i) leaves.push_back(test_data(120));
  MerkleTree tree(leaves);
  for (auto _ : state) {
    const auto proof = tree.prove(31);
    benchmark::DoNotOptimize(MerkleTree::verify(leaves[31], proof, tree.root()));
  }
}
BENCHMARK(BM_MerkleProveVerify);

aim::TravelPlan micro_plan(std::uint64_t vid) {
  aim::TravelPlan p;
  p.vehicle = VehicleId{vid};
  p.route_id = static_cast<int>(vid % 12);
  p.segments = {aim::PlanSegment{0, 0, 15.0}, aim::PlanSegment{12'000, 180, 20.0}};
  return p;
}

void BM_BlockPackage(benchmark::State& state) {
  Rng rng(5);
  const auto signer = RsaSigner::generate(rng, 2048);
  std::vector<aim::TravelPlan> plans;
  for (int i = 0; i < state.range(0); ++i) {
    plans.push_back(micro_plan(static_cast<std::uint64_t>(i) + 1));
  }
  Digest prev{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chain::Block::package(1, prev, 1000, plans, *signer));
  }
}
BENCHMARK(BM_BlockPackage)->Arg(1)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_BlockStructuralVerify(benchmark::State& state) {
  Rng rng(6);
  const auto signer = RsaSigner::generate(rng, 2048);
  std::vector<aim::TravelPlan> plans;
  for (int i = 0; i < state.range(0); ++i) {
    plans.push_back(micro_plan(static_cast<std::uint64_t>(i) + 1));
  }
  const chain::Block block = chain::Block::package(1, {}, 1000, plans, *signer);
  const auto verifier = signer->verifier();
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.verify_signature(*verifier));
    benchmark::DoNotOptimize(block.verify_merkle());
  }
}
BENCHMARK(BM_BlockStructuralVerify)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

/// Headline phases re-measured with the shared warmup + median-of-N helper
/// and written to BENCH_crypto_micro.json (nwade-bench-v1, support.h). The
/// amortized-context phase shows what RsaVerifyContext saves over the free
/// function, which pays Montgomery setup on every call.
constexpr const char* kOutPath = "BENCH_crypto_micro.json";

bool emit_bench_json() {
  const auto t_start = std::chrono::steady_clock::now();
  const auto& key = key_of(2048);
  const Bytes msg = test_data(512);
  const Bytes sig = rsa_sign(key.priv, msg);
  constexpr int kVerifies = 16;

  const auto verify_free = nwade::bench::timed_median(1, 5, [&] {
    for (int i = 0; i < kVerifies; ++i) {
      benchmark::DoNotOptimize(rsa_verify(key.pub, msg, sig));
    }
  });
  const RsaVerifyContext ctx(key.pub);
  const auto verify_ctx = nwade::bench::timed_median(1, 5, [&] {
    for (int i = 0; i < kVerifies; ++i) {
      benchmark::DoNotOptimize(ctx.verify(msg, sig));
    }
  });
  const RsaSignContext sign_ctx(key.priv);
  const auto sign_free = nwade::bench::timed_median(1, 5, [&] {
    benchmark::DoNotOptimize(rsa_sign(key.priv, msg));
  });
  const auto sign_context = nwade::bench::timed_median(1, 5, [&] {
    benchmark::DoNotOptimize(sign_ctx.sign(msg));
  });
  const auto sha_64k = nwade::bench::timed_median(1, 5, [data = test_data(65536)] {
    benchmark::DoNotOptimize(sha256(data));
  });

  // allocs/op columns (only measured in NWADE_COUNT_ALLOCS builds).
  const double sign_allocs = nwade::bench::allocs_per_op(
      8, [&] { benchmark::DoNotOptimize(sign_ctx.sign(msg)); });
  const double verify_allocs = nwade::bench::allocs_per_op(
      32, [&] { benchmark::DoNotOptimize(ctx.verify(msg, sig)); });

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_start)
                            .count();
  const std::string envelope = nwade::bench::bench_envelope(
      "crypto_micro", wall_s,
      {nwade::bench::json_phase("rsa2048_verify_x16_free", verify_free),
       nwade::bench::json_phase("rsa2048_verify_x16_context", verify_ctx,
                                verify_allocs),
       nwade::bench::json_speedup(
           "rsa2048_verify_context",
           verify_ctx.median_ms > 0 ? verify_free.median_ms / verify_ctx.median_ms
                                    : 0),
       nwade::bench::json_phase("rsa2048_sign_free", sign_free),
       nwade::bench::json_phase("rsa2048_sign_context", sign_context,
                                sign_allocs),
       nwade::bench::json_speedup(
           "rsa2048_sign_context",
           sign_context.median_ms > 0 ? sign_free.median_ms / sign_context.median_ms
                                      : 0),
       nwade::bench::json_phase("sha256_64k", sha_64k)});
  return nwade::bench::write_bench_file(kOutPath, envelope);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Fail on an unwritable envelope path before the minutes of RSA timing,
  // and propagate a failed write as a failing exit code — a silent envelope
  // loss would let CI diff against a stale BENCH file.
  if (!nwade::util::preflight_output_path(kOutPath)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return emit_bench_json() ? 0 : 1;
}
