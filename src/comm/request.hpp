#pragma once
// Nonblocking-operation handles (the MPI_Request analogue).

#include <cstddef>
#include <memory>

namespace cmtbone::comm {

/// Completion status of a receive (MPI_Status analogue).
struct Status {
  int source = -1;
  int tag = -1;
  std::size_t bytes = 0;
};

/// Shared state behind a Request. For receives, the poster's mailbox fills
/// `status` and flips `done` under its mutex; waiters sleep on its
/// condition variable.
struct RequestState {
  bool done = false;
  bool is_recv = false;

  // Receive-side matching spec and destination buffer.
  int src = 0;
  int tag = 0;
  void* buf = nullptr;
  std::size_t capacity = 0;

  Status status;
};

/// Value-semantic handle; copyable like MPI_Request. A default-constructed
/// Request is "null" and completes immediately.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  RequestState* state() const { return state_.get(); }

 private:
  std::shared_ptr<RequestState> state_;
};

}  // namespace cmtbone::comm
