#include "containers/container.hpp"

namespace ilu {

const char* to_string(ContainerState s) {
  switch (s) {
    case ContainerState::Provisioning: return "Provisioning";
    case ContainerState::Launching: return "Launching";
    case ContainerState::Idle: return "Idle";
    case ContainerState::Running: return "Running";
    case ContainerState::Removed: return "Removed";
  }
  return "?";
}

}  // namespace ilu
