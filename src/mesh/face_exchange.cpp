#include "mesh/face_exchange.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "parallel/parallel.hpp"
#include "util/bytes.hpp"

namespace cmtbone::mesh {

namespace {
constexpr int kTagBase = 64;  // p2p tags 64..69, one per direction
}  // namespace

FaceExchange::FaceExchange(comm::Comm& comm, const ElementLayout& layout)
    : comm_(&comm), n_(layout.spec().n), nel_(layout.nel()) {
  // One plan per (direction, partner). With arbitrary ownership a plane of
  // faces can pair with several ranks; (dir, partner) keeps each message a
  // single well-ordered stream. std::map gives a deterministic plan order.
  std::map<std::pair<int, int>, DirPlan> plans;
  std::map<std::pair<int, int>, std::vector<long long>> nbr_gids;

  // Local elements ascend by gid (the layout invariant), so appending while
  // scanning e leaves every plan's pack order in ascending own-gid order —
  // for the block layout exactly the transverse-lexicographic plane order
  // the static planner produced.
  for (int e = 0; e < nel_; ++e) {
    const long long g = layout.gid_of(e);
    for (int f = 0; f < kFacesPerElement; ++f) {
      const long long ng = layout.face_neighbor(g, f);
      if (ng < 0) {
        // Physical boundary: mirror the element's own face.
        local_.push_back({e, f, e, f});
        continue;
      }
      const int owner = layout.owner_of_gid(ng);
      if (owner == layout.rank()) {
        local_.push_back({layout.local_of_gid(ng), opposite_face(f), e, f});
      } else {
        DirPlan& plan = plans[{f, owner}];
        plan.dir = f;
        plan.partner = owner;
        plan.elems.push_back(e);
        nbr_gids[{f, owner}].push_back(ng);
      }
    }
  }

  for (auto& [key, plan] : plans) {
    // Unpack order: the partner packed its plane ascending by *its* gids,
    // which are these elements' neighbor gids — sort by them (unique per
    // entry: distinct elements have distinct same-direction neighbors).
    const std::vector<long long>& gids = nbr_gids[key];
    std::vector<int> order(plan.elems.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return gids[a] < gids[b]; });
    plan.recv_elems.reserve(order.size());
    for (int i : order) plan.recv_elems.push_back(plan.elems[i]);
    plans_.push_back(std::move(plan));
  }
  recvbuf_.resize(plans_.size());
}

void FaceExchange::exchange(const double* myfaces, double* nbrfaces,
                            int nfields) {
  begin(myfaces, nbrfaces, nfields);
  finish();
}

FaceExchange::~FaceExchange() { abandon_exchange(); }

void FaceExchange::abandon_exchange() {
  for (comm::Request& r : recv_reqs_) comm_->cancel(r);
  recv_reqs_.clear();
  pending_nbrfaces_ = nullptr;
  pending_nfields_ = 0;
}

void FaceExchange::begin(const double* myfaces, double* nbrfaces,
                         int nfields) {
  // A second begin() would drop the first exchange's posted receives
  // without withdrawing them; refuse it and leave that exchange intact.
  if (in_flight()) {
    throw std::logic_error(
        "FaceExchange::begin: an exchange is already in flight; call "
        "finish() first");
  }
  const std::size_t fpts = std::size_t(n_) * n_;
  const std::size_t field_stride = face_array_size(n_, nel_);
  pending_nbrfaces_ = nbrfaces;
  pending_nfields_ = nfields;

  // Post receives first: the payload arriving from partner(d) was sent as
  // their face opposite(dir), which is exactly my `dir` neighbor data.
  // A chaos abort or peer failure can fire from the hooks inside
  // irecv/isend_payload with some receives already posted — withdraw them
  // on the way out so nothing delivers into recvbuf_ after the unwind.
  try {
    recv_reqs_.clear();
    recv_reqs_.reserve(plans_.size());
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      const DirPlan& plan = plans_[p];
      recvbuf_[p].resize(plan.elems.size() * fpts * nfields);
      recv_reqs_.push_back(comm_->irecv(
          std::span<double>(recvbuf_[p]), plan.partner,
          kTagBase + opposite_face(plan.dir)));
    }

    // Pack each outgoing plane directly into the byte payload that becomes
    // the in-flight message — isend_payload moves it into the runtime, so
    // the plane is copied exactly once between `myfaces` and the receiver.
    // The (field, element) slots are packed by the worker pool; every slot
    // lands at its fixed offset regardless of which thread copies it.
    for (const DirPlan& plan : plans_) {
      const std::size_t nelems = plan.elems.size();
      std::vector<std::byte> payload(nelems * fpts * nfields * sizeof(double));
      std::byte* out = payload.data();
      const std::size_t slots = std::size_t(nfields) * nelems;
      parallel::for_elements(
          slots, parallel::default_grain(slots, threads_), threads_,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
              const std::size_t fd = s / nelems;
              const int e = plan.elems[s % nelems];
              const double* field = myfaces + fd * field_stride;
              util::copy_bytes(out + s * fpts * sizeof(double),
                               field + face_offset(plan.dir, e, n_),
                               fpts * sizeof(double));
            }
          });
      comm_->isend_payload(std::move(payload), plan.partner,
                           kTagBase + plan.dir);
    }
  } catch (...) {
    abandon_exchange();
    throw;
  }

  // Interior (and physical-boundary mirror) copies happen inside begin() so
  // every locally-paired face is usable while the remote planes fly. Each
  // (element, face) is the destination of exactly one copy, so splitting the
  // flattened (field, copy) list across threads races nothing.
  const std::size_t ncopies = local_.size();
  const std::size_t slots = std::size_t(nfields) * ncopies;
  parallel::for_elements(
      slots, parallel::default_grain(slots, threads_), threads_,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const std::size_t fd = s / ncopies;
          const LocalCopy& c = local_[s % ncopies];
          const double* src_field = myfaces + fd * field_stride;
          double* dst_field = nbrfaces + fd * field_stride;
          util::copy_bytes(dst_field + face_offset(c.dst_f, c.dst_e, n_),
                           src_field + face_offset(c.src_f, c.src_e, n_),
                           fpts * sizeof(double));
        }
      });
}

void FaceExchange::finish() {
  if (!in_flight()) return;
  const std::size_t fpts = std::size_t(n_) * n_;
  const std::size_t field_stride = face_array_size(n_, nel_);
  double* nbrfaces = pending_nbrfaces_;
  const int nfields = pending_nfields_;

  try {
    comm_->waitall(recv_reqs_);
  } catch (...) {
    // waitall withdrew whatever was still posted; clear the in-flight
    // state so the handle is reusable after the job unwinds.
    abandon_exchange();
    throw;
  }

  for (std::size_t p = 0; p < plans_.size(); ++p) {
    const DirPlan& plan = plans_[p];
    const double* in = recvbuf_[p].data();
    const std::size_t nelems = plan.elems.size();
    const std::size_t slots = std::size_t(nfields) * nelems;
    parallel::for_elements(
        slots, parallel::default_grain(slots, threads_), threads_,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t s = lo; s < hi; ++s) {
            const std::size_t fd = s / nelems;
            const int e = plan.recv_elems[s % nelems];
            double* field = nbrfaces + fd * field_stride;
            util::copy_bytes(field + face_offset(plan.dir, e, n_),
                             in + s * fpts, fpts * sizeof(double));
          }
        });
  }

  recv_reqs_.clear();
  pending_nbrfaces_ = nullptr;
  pending_nfields_ = 0;
}

long long FaceExchange::send_bytes_per_exchange(int nfields) const {
  long long bytes = 0;
  for (const DirPlan& plan : plans_) {
    bytes += 1LL * plan.elems.size() * n_ * n_ * nfields * sizeof(double);
  }
  return bytes;
}

int FaceExchange::remote_partner_count() const {
  std::vector<int> partners;
  for (const DirPlan& plan : plans_) partners.push_back(plan.partner);
  std::sort(partners.begin(), partners.end());
  partners.erase(std::unique(partners.begin(), partners.end()), partners.end());
  return int(partners.size());
}

}  // namespace cmtbone::mesh
