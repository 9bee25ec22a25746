#pragma once
// mini-SAMRAI (Section 4.10.5): integer index boxes, patches with ghost
// cells, and patch levels with ghost exchange. Patch field storage draws
// from the Umpire-style MemoryPool so repeated regridding amortizes
// allocation cost, exactly the design the paper describes.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/exec.hpp"
#include "core/pool.hpp"

namespace coe::amr {

/// Closed integer index box [lo, hi] in 2D cell space.
struct Box {
  std::int64_t ilo = 0, jlo = 0;
  std::int64_t ihi = -1, jhi = -1;

  std::int64_t ni() const { return ihi - ilo + 1; }
  std::int64_t nj() const { return jhi - jlo + 1; }
  bool empty() const { return ni() <= 0 || nj() <= 0; }
  std::size_t size() const {
    return empty() ? 0 : static_cast<std::size_t>(ni() * nj());
  }

  bool contains(std::int64_t i, std::int64_t j) const {
    return i >= ilo && i <= ihi && j >= jlo && j <= jhi;
  }

  Box grown(std::int64_t g) const {
    return {ilo - g, jlo - g, ihi + g, jhi + g};
  }

  static Box intersect(const Box& a, const Box& b) {
    return {std::max(a.ilo, b.ilo), std::max(a.jlo, b.jlo),
            std::min(a.ihi, b.ihi), std::min(a.jhi, b.jhi)};
  }
};

/// Cell-centered double field on a ghosted patch box, pool-allocated.
/// Storage is row-major over the ghosted box: cell (i, j) is element
/// (i - gb.ilo) * stride() + (j - gb.jlo) of data(), with
/// gb = interior().grown(ghost()), so each i is one contiguous row.
class PatchField {
 public:
  PatchField(core::MemoryPool& pool, const Box& interior, std::int64_t ghost)
      : interior_(interior), ghost_(ghost),
        data_(pool, interior.grown(ghost).size()) {
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] = 0.0;
  }

  const Box& interior() const { return interior_; }
  std::int64_t ghost() const { return ghost_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::int64_t stride() const { return interior_.nj() + 2 * ghost_; }

  /// Row i, offset so that row(i)[j - interior().jlo] is cell (i, j); valid
  /// offsets run from -ghost() to interior().nj() + ghost() - 1.
  double* row(std::int64_t i) {
    assert(i >= interior_.ilo - ghost_ && i <= interior_.ihi + ghost_);
    return data() + (i - interior_.ilo + ghost_) * stride() + ghost_;
  }
  const double* row(std::int64_t i) const {
    return const_cast<PatchField*>(this)->row(i);
  }

  double& at(std::int64_t i, std::int64_t j) {
    assert(interior_.grown(ghost_).contains(i, j));
    return row(i)[j - interior_.jlo];
  }
  double at(std::int64_t i, std::int64_t j) const {
    return const_cast<PatchField*>(this)->at(i, j);
  }

 private:
  Box interior_;
  std::int64_t ghost_;
  core::PoolArray<double> data_;
};

/// A patch: one box plus named fields.
class Patch {
 public:
  Patch(core::MemoryPool& pool, const Box& box, std::int64_t ghost)
      : pool_(&pool), box_(box), ghost_(ghost) {}

  const Box& box() const { return box_; }
  std::int64_t ghost() const { return ghost_; }

  PatchField& add_field(const std::string& name) {
    auto [it, fresh] = fields_.try_emplace(name, nullptr);
    if (fresh) {
      it->second = std::make_unique<PatchField>(*pool_, box_, ghost_);
    }
    return *it->second;
  }
  PatchField& field(const std::string& name) { return *fields_.at(name); }
  const PatchField& field(const std::string& name) const {
    return *fields_.at(name);
  }
  std::vector<std::string> field_names() const {
    std::vector<std::string> names;
    for (const auto& [k, v] : fields_) names.push_back(k);
    return names;
  }

 private:
  core::MemoryPool* pool_;
  Box box_;
  std::int64_t ghost_;
  std::map<std::string, std::unique_ptr<PatchField>> fields_;
};

enum class BoundaryKind { Periodic, Outflow };

/// One refinement level: patches tiling (part of) the domain.
class PatchLevel {
 public:
  PatchLevel(core::MemoryPool& pool, Box domain, std::int64_t ghost,
             BoundaryKind bc)
      : pool_(&pool), domain_(domain), ghost_(ghost), bc_(bc) {}

  const Box& domain() const { return domain_; }
  std::int64_t ghost() const { return ghost_; }
  BoundaryKind boundary() const { return bc_; }

  /// The level's patches must be disjoint: throws std::invalid_argument if
  /// `box` shares a cell with a patch already on the level.
  Patch& add_patch(const Box& box) {
    for (const auto& p : patches_) {
      if (!Box::intersect(p->box(), box).empty()) {
        throw std::invalid_argument(
            "PatchLevel::add_patch: box overlaps an existing patch");
      }
    }
    patches_.push_back(std::make_unique<Patch>(*pool_, box, ghost_));
    return *patches_.back();
  }
  std::size_t num_patches() const { return patches_.size(); }
  Patch& patch(std::size_t p) { return *patches_[p]; }
  const Patch& patch(std::size_t p) const { return *patches_[p]; }

  /// Fills every patch's ghost cells for `field` from sibling patches and
  /// the physical boundary condition. A ghost cell whose source lies in no
  /// patch keeps its value (on a fine level, the prolonged coarse data).
  void fill_ghosts(const std::string& field);

  /// Reads the level's value at a cell (must be interior to some patch).
  double value_at(const std::string& field, std::int64_t i,
                  std::int64_t j) const;
  bool covers(std::int64_t i, std::int64_t j) const;

 private:
  core::MemoryPool* pool_;
  Box domain_;
  std::int64_t ghost_;
  BoundaryKind bc_;
  std::vector<std::unique_ptr<Patch>> patches_;
};

}  // namespace coe::amr
