#include "smr/share_accumulator.h"

#include "common/assert.h"

namespace repro::smr {

ShareAccumulator::ShareAccumulator(const crypto::ThresholdScheme& scheme,
                                   BytesView signing_message)
    : point_(scheme.message_point(signing_message)) {}

std::optional<crypto::ThresholdSig> ShareAccumulator::add(const ShareEnv& env,
                                                          const crypto::PartialSig& share) {
  REPRO_ASSERT(env.scheme != nullptr && env.lagrange != nullptr && env.stats != nullptr);
  if (done_) return std::nullopt;
  if (share.signer >= env.scheme->n()) return std::nullopt;
  if (banned_.count(share.signer) != 0) return std::nullopt;
  if (slots_.count(share.signer) != 0) return std::nullopt;  // duplicate signer

  ++env.stats->shares_verified;
  if (!env.scheme->verify_share_at(share, point_)) {
    ++env.stats->bad_shares_rejected;
    env.stats->blame_signer(share.signer);
    banned_.insert(share.signer);
    return std::nullopt;
  }
  slots_.emplace(share.signer, share.value);

  // The accumulator completes on the t-th verified share, so it holds
  // exactly t shares here. Any t valid shares of the same degree-(t-1)
  // polynomial combine to the identical signature.
  const std::uint32_t t = env.scheme->threshold();
  if (slots_.size() < t) return std::nullopt;
  std::vector<ReplicaId> ids;
  std::vector<crypto::PartialSig> picked;
  ids.reserve(t);
  picked.reserve(t);
  for (const auto& [signer, value] : slots_) {
    ids.push_back(signer);
    picked.push_back(crypto::PartialSig{signer, value});
  }
  ++env.stats->combines;
  done_ = true;
  return env.scheme->combine_with_coefficients(picked, env.lagrange->coefficients(ids));
}

}  // namespace repro::smr
