#include "cmp/scan_pass.h"

namespace cmp {

SlotMaps BuildSlotMaps(int num_nodes, const FrontierQueues& work) {
  SlotMaps slots;
  slots.fresh.assign(num_nodes, -1);
  slots.pending.assign(num_nodes, -1);
  slots.collect.assign(num_nodes, -1);
  for (size_t i = 0; i < work.fresh.size(); ++i) {
    slots.fresh[work.fresh[i].node] = static_cast<int>(i);
  }
  for (size_t i = 0; i < work.pending.size(); ++i) {
    slots.pending[work.pending[i].node] = static_cast<int>(i);
  }
  for (size_t i = 0; i < work.collect.size(); ++i) {
    slots.collect[work.collect[i].node] = static_cast<int>(i);
  }
  return slots;
}

}  // namespace cmp
