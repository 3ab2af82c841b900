#include "chain/fanout.h"

namespace nwade::chain {

std::vector<std::uint8_t> fanout_verify(
    const Block& block, const std::vector<const crypto::Verifier*>& verifiers,
    util::WorkerPool& pool) {
  const bool merkle_ok = block.verify_merkle();
  return pool.map<std::uint8_t>(verifiers.size(), [&](std::size_t i) {
    return static_cast<std::uint8_t>(merkle_ok && block.verify_signature(*verifiers[i]));
  });
}

}  // namespace nwade::chain
