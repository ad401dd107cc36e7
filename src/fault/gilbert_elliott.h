// Gilbert–Elliott two-state burst-loss model.
//
// The channel alternates between a Good and a Bad state; each offered
// frame first makes a (seeded, deterministic) state transition and is then
// dropped with the state's loss probability. Burstiness comes from the
// sojourn times: mean burst length = 1 / p_bad_good frames.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace ncache::fault {

class GilbertElliott {
 public:
  struct Params {
    double p_good_bad = 0.01;  ///< P(Good -> Bad) per offered frame
    double p_bad_good = 0.20;  ///< P(Bad -> Good) per offered frame
    double drop_good = 0.0;    ///< loss probability while Good
    double drop_bad = 0.5;     ///< loss probability while Bad
  };

  GilbertElliott(Params params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

  /// One offered frame: advance the channel state, decide its fate.
  bool drop() {
    if (bad_) {
      if (rng_.uniform() < params_.p_bad_good) bad_ = false;
    } else {
      if (rng_.uniform() < params_.p_good_bad) bad_ = true;
    }
    double p = bad_ ? params_.drop_bad : params_.drop_good;
    return p > 0.0 && rng_.uniform() < p;
  }

  bool in_bad_state() const noexcept { return bad_; }

 private:
  Params params_;
  Pcg32 rng_;
  bool bad_ = false;
};

}  // namespace ncache::fault
