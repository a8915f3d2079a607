#include "sofe/kstroll/pricing.hpp"

#include <algorithm>
#include <cassert>

namespace sofe::kstroll {

void SharedVmBlock::build(const MetricClosure& closure, const std::vector<NodeId>& vms,
                          const std::vector<Cost>& node_cost) {
  m_ = vms.size();
  const std::size_t stride = m_ + 1;
  values_.assign(m_ * stride, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    // One tree lookup per ROW (the per-pair builder pays one per entry);
    // entry (i, j < i) was already written by row j's pass.
    const auto& row = closure.tree(vms[i]);
    const Cost ci = node_cost[static_cast<std::size_t>(vms[i])];
    for (std::size_t j = i + 1; j < m_; ++j) {
      // Exactly build_stroll_instance's arithmetic for a VM pair: base
      // distance from the lower-indexed node's tree plus the shared setup.
      const Cost base = row.distance(vms[j]);
      const Cost share = (ci + node_cost[static_cast<std::size_t>(vms[j])]) / 2.0;
      values_[i * stride + j + 1] = values_[j * stride + i + 1] = base + share;
    }
  }
  valid_ = true;
}

void InstanceAssembler::bind_block(const SharedVmBlock& block, const std::vector<NodeId>& vms) {
  assert(block.valid() && block.size() == vms.size());
  const std::size_t m = vms.size();
  const std::size_t n = m + 1;

  inst_.source = graph::kInvalidNode;
  inst_.last_vm = graph::kInvalidNode;
  inst_.last_index = 0;
  inst_.nodes.assign(n, graph::kInvalidNode);
  std::copy(vms.begin(), vms.end(), inst_.nodes.begin() + 1);

  source_row_.assign(n, 0.0);
  inst_.rows.resize(n);
  inst_.rows[0] = source_row_.data();
  for (std::size_t i = 0; i < m; ++i) inst_.rows[i + 1] = block.row(i);
  base_row_ = nullptr;
}

void InstanceAssembler::bind_source(NodeId s, const Cost* base_row) {
  assert(!inst_.rows.empty() && "bind_block first");
  assert(std::find(inst_.nodes.begin() + 1, inst_.nodes.end(), s) == inst_.nodes.end() &&
         "sources inside the VM set use the per-pair builder");
  inst_.source = s;
  inst_.nodes[0] = s;
  base_row_ = base_row;
}

const StrollInstance& InstanceAssembler::with_last_vm(std::size_t vm_index, NodeId u,
                                                      const std::vector<Cost>& node_cost) {
  assert(base_row_ != nullptr && "bind_source first");
  assert(vm_index + 1 < inst_.nodes.size() && inst_.nodes[vm_index + 1] == u);
  const std::size_t m = inst_.nodes.size() - 1;
  const Cost cu = node_cost[static_cast<std::size_t>(u)];
  for (std::size_t j = 0; j < m; ++j) {
    // build_stroll_instance's v1 == s branch: base + (c(u) + c(v2)) / 2.
    // Column 0 of the VM rows (the mirrored entry) is never read.
    const Cost share = (cu + node_cost[static_cast<std::size_t>(inst_.nodes[j + 1])]) / 2.0;
    source_row_[j + 1] = base_row_[j] + share;
  }
  inst_.last_vm = u;
  inst_.last_index = vm_index + 1;
  return inst_;
}

}  // namespace sofe::kstroll
