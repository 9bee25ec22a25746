#include "amr/patch.hpp"

namespace coe::amr {

namespace {

/// Maps an index to its periodic image inside [lo, hi].
std::int64_t wrap(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  const std::int64_t n = hi - lo + 1;
  std::int64_t r = (v - lo) % n;
  if (r < 0) r += n;
  return lo + r;
}

std::int64_t clampi(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace

void PatchLevel::fill_ghosts(const std::string& field) {
  std::vector<PatchField*> fields(patches_.size());
  for (std::size_t q = 0; q < patches_.size(); ++q) {
    fields[q] = &patches_[q]->field(field);
  }
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    const Box& box = patches_[p]->box();
    PatchField& dst = *fields[p];
    auto fill = [&](std::int64_t i, std::int64_t j) {
      // Source index after applying the physical boundary rule.
      std::int64_t si = i, sj = j;
      if (!domain_.contains(i, j)) {
        if (bc_ == BoundaryKind::Periodic) {
          si = wrap(i, domain_.ilo, domain_.ihi);
          sj = wrap(j, domain_.jlo, domain_.jhi);
        } else {
          si = clampi(i, domain_.ilo, domain_.ihi);
          sj = clampi(j, domain_.jlo, domain_.jhi);
        }
      }
      // Own interior after wrapping/clamping, else the first patch holding
      // the source cell.
      if (box.contains(si, sj)) {
        dst.at(i, j) = dst.at(si, sj);
        return;
      }
      for (std::size_t q = 0; q < patches_.size(); ++q) {
        if (patches_[q]->box().contains(si, sj)) {
          dst.at(i, j) = fields[q]->at(si, sj);
          return;
        }
      }
    };
    // The ghost ring only: whole ghost rows below and above the interior,
    // then the ghost ends of each interior row.
    const Box gb = box.grown(ghost_);
    for (std::int64_t i = gb.ilo; i <= gb.ihi; ++i) {
      if (i < box.ilo || i > box.ihi) {
        for (std::int64_t j = gb.jlo; j <= gb.jhi; ++j) fill(i, j);
      } else {
        for (std::int64_t j = gb.jlo; j < box.jlo; ++j) fill(i, j);
        for (std::int64_t j = box.jhi + 1; j <= gb.jhi; ++j) fill(i, j);
      }
    }
  }
}

bool PatchLevel::covers(std::int64_t i, std::int64_t j) const {
  for (const auto& p : patches_) {
    if (p->box().contains(i, j)) return true;
  }
  return false;
}

double PatchLevel::value_at(const std::string& field, std::int64_t i,
                            std::int64_t j) const {
  for (const auto& p : patches_) {
    if (p->box().contains(i, j)) return p->field(field).at(i, j);
  }
  return 0.0;
}

void prolong_into(const PatchLevel& coarse, Patch& fine_patch,
                  const std::string& field, std::int64_t ratio) {
  PatchField& dst = fine_patch.field(field);
  const Box gb = fine_patch.box().grown(fine_patch.ghost());
  for (std::int64_t i = gb.ilo; i <= gb.ihi; ++i) {
    for (std::int64_t j = gb.jlo; j <= gb.jhi; ++j) {
      if (fine_patch.box().contains(i, j)) continue;
      auto fdiv = [ratio](std::int64_t a) {
        return a >= 0 ? a / ratio : -((-a + ratio - 1) / ratio);
      };
      std::int64_t ci = fdiv(i), cj = fdiv(j);
      // Clamp into the coarse domain (outflow-style at physical walls).
      ci = std::max(coarse.domain().ilo, std::min(ci, coarse.domain().ihi));
      cj = std::max(coarse.domain().jlo, std::min(cj, coarse.domain().jhi));
      if (coarse.covers(ci, cj)) {
        dst.at(i, j) = coarse.value_at(field, ci, cj);
      }
    }
  }
}

void restrict_onto(const PatchLevel& fine, PatchLevel& coarse,
                   const std::string& field, std::int64_t ratio) {
  const double inv = 1.0 / static_cast<double>(ratio * ratio);
  for (std::size_t cp = 0; cp < coarse.num_patches(); ++cp) {
    Patch& patch = coarse.patch(cp);
    PatchField& dst = patch.field(field);
    for (std::int64_t i = patch.box().ilo; i <= patch.box().ihi; ++i) {
      for (std::int64_t j = patch.box().jlo; j <= patch.box().jhi; ++j) {
        const std::int64_t fi = i * ratio, fj = j * ratio;
        if (!fine.covers(fi, fj)) continue;
        double sum = 0.0;
        bool all = true;
        for (std::int64_t di = 0; di < ratio && all; ++di) {
          for (std::int64_t dj = 0; dj < ratio; ++dj) {
            if (!fine.covers(fi + di, fj + dj)) {
              all = false;
              break;
            }
            sum += fine.value_at(field, fi + di, fj + dj);
          }
        }
        if (all) dst.at(i, j) = sum * inv;
      }
    }
  }
}

}  // namespace coe::amr
