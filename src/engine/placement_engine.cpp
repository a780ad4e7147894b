#include "engine/placement_engine.h"

#include <array>

namespace als {

namespace {

constexpr std::array<EngineBackend, 4> kBackends = {
    EngineBackend::FlatBStar,
    EngineBackend::SeqPair,
    EngineBackend::Slicing,
    EngineBackend::HBStar,
};

}  // namespace

std::span<const EngineBackend> allBackends() { return kBackends; }

std::string_view backendName(EngineBackend backend) {
  switch (backend) {
    case EngineBackend::FlatBStar: return "flat-bstar";
    case EngineBackend::SeqPair: return "seqpair";
    case EngineBackend::Slicing: return "slicing";
    case EngineBackend::HBStar: return "hbstar";
  }
  return "unknown";
}

}  // namespace als
