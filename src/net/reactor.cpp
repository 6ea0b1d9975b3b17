#include "net/reactor.h"

#include <poll.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

#if defined(__linux__)
#include <sys/epoll.h>
#include <unistd.h>
#define BSUB_HAVE_EPOLL 1
#else
#define BSUB_HAVE_EPOLL 0
#endif

namespace bsub::net {

namespace {

/// poll(2) backend: dense pollfd array plus an fd -> slot index so add and
/// remove are O(1) (remove swap-erases the tail slot into the hole). The
/// wait itself stays O(registered fds) — that is poll's contract and the
/// reason the fleet prefers epoll.
class PollBackend final : public detail::FdBackend {
 public:
  void add(int fd) override {
    if (index_.contains(fd)) return;
    index_.emplace(fd, pfds_.size());
    pfds_.push_back(pollfd{fd, POLLIN, 0});
  }

  void remove(int fd) override {
    auto it = index_.find(fd);
    if (it == index_.end()) return;
    const std::size_t slot = it->second;
    index_.erase(it);
    const std::size_t last = pfds_.size() - 1;
    if (slot != last) {
      pfds_[slot] = pfds_[last];
      index_[pfds_[slot].fd] = slot;
    }
    pfds_.pop_back();
  }

  std::size_t size() const override { return pfds_.size(); }

  void wait(int timeout_ms, std::vector<int>& ready) override {
    ready.clear();
    for (pollfd& p : pfds_) p.revents = 0;
    const int n = ::poll(pfds_.empty() ? nullptr : pfds_.data(),
                         static_cast<nfds_t>(pfds_.size()), timeout_ms);
    if (n <= 0) return;  // timeout, or EINTR/transient error == nothing ready
    for (const pollfd& p : pfds_) {
      if (p.revents & (POLLIN | POLLERR | POLLHUP)) ready.push_back(p.fd);
    }
  }

 private:
  std::vector<pollfd> pfds_;
  std::unordered_map<int, std::size_t> index_;
};

#if BSUB_HAVE_EPOLL

/// epoll(7) backend: the kernel owns the interest set (epoll_ctl is O(1)),
/// and epoll_wait returns only the ready fds, so a 10k-socket fleet shard
/// pays for the datagrams that arrived, not the sockets that exist.
class EpollBackend final : public detail::FdBackend {
 public:
  EpollBackend() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epfd_ < 0) {
      throw std::runtime_error("epoll_create1 failed: errno " +
                               std::to_string(errno));
    }
  }

  ~EpollBackend() override { ::close(epfd_); }

  void add(int fd) override {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0) {
      ++size_;
      return;
    }
    if (errno == EEXIST) return;  // re-registration replaces the handler only
    throw std::runtime_error("epoll_ctl(ADD) failed: errno " +
                             std::to_string(errno));
  }

  void remove(int fd) override {
    if (::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) == 0) --size_;
    // ENOENT (never registered) and EBADF (caller closed the fd first, which
    // auto-deregisters it) are both fine for an idempotent remove.
  }

  std::size_t size() const override { return size_; }

  void wait(int timeout_ms, std::vector<int>& ready) override {
    ready.clear();
    if (events_.size() < std::max<std::size_t>(size_, 1)) {
      events_.resize(std::max<std::size_t>(size_, 64));
    }
    const int n = ::epoll_wait(epfd_, events_.data(),
                               static_cast<int>(events_.size()), timeout_ms);
    if (n <= 0) return;  // timeout, or EINTR == nothing ready
    for (int i = 0; i < n; ++i) ready.push_back(events_[i].data.fd);
  }

 private:
  int epfd_;
  std::size_t size_ = 0;
  std::vector<epoll_event> events_;
};

#endif  // BSUB_HAVE_EPOLL

std::unique_ptr<detail::FdBackend> make_backend(ReactorBackend backend) {
  switch (backend) {
    case ReactorBackend::kPoll:
      return std::make_unique<PollBackend>();
    case ReactorBackend::kEpoll:
#if BSUB_HAVE_EPOLL
      return std::make_unique<EpollBackend>();
#else
      throw std::runtime_error("epoll reactor backend unavailable here");
#endif
    case ReactorBackend::kAuto:
      break;
  }
  return make_backend(default_reactor_backend());
}

}  // namespace

bool reactor_backend_available(ReactorBackend backend) {
  switch (backend) {
    case ReactorBackend::kAuto:
    case ReactorBackend::kPoll:
      return true;
    case ReactorBackend::kEpoll:
      return BSUB_HAVE_EPOLL != 0;
  }
  return false;
}

std::string_view reactor_backend_name(ReactorBackend backend) {
  switch (backend) {
    case ReactorBackend::kAuto:
      return "auto";
    case ReactorBackend::kPoll:
      return "poll";
    case ReactorBackend::kEpoll:
      return "epoll";
  }
  return "?";
}

std::optional<ReactorBackend> parse_reactor_backend(std::string_view name) {
  if (name == "auto") return ReactorBackend::kAuto;
  if (name == "poll") return ReactorBackend::kPoll;
  if (name == "epoll") return ReactorBackend::kEpoll;
  return std::nullopt;
}

ReactorBackend default_reactor_backend() {
  if (const char* env = std::getenv("BSUB_REACTOR")) {
    const auto parsed = parse_reactor_backend(env);
    if (parsed && *parsed != ReactorBackend::kAuto &&
        reactor_backend_available(*parsed)) {
      return *parsed;
    }
  }
#if BSUB_HAVE_EPOLL
  return ReactorBackend::kEpoll;
#else
  return ReactorBackend::kPoll;
#endif
}

Reactor::Reactor(Clock& clock, ReactorBackend backend)
    : clock_(clock),
      wheel_(clock.now()),
      backend_(backend == ReactorBackend::kAuto ? default_reactor_backend()
                                                : backend),
      fds_(make_backend(backend_)) {}

Reactor::~Reactor() = default;

Reactor::TimerId Reactor::schedule_at(util::Time deadline,
                                      TimerWheel::Callback cb) {
  return wheel_.schedule(deadline, std::move(cb));
}

Reactor::TimerId Reactor::schedule_after(util::Time delay,
                                         TimerWheel::Callback cb) {
  return wheel_.schedule(clock_.now() + std::max<util::Time>(delay, 0),
                         std::move(cb));
}

bool Reactor::cancel(TimerId id) { return wheel_.cancel(id); }

void Reactor::add_fd(int fd, std::function<void()> on_readable) {
  handlers_[fd] = FdHandler{std::move(on_readable)};
  fds_->add(fd);
}

void Reactor::remove_fd(int fd) {
  if (handlers_.erase(fd) == 0) return;
  fds_->remove(fd);
}

void Reactor::advance_to(ManualClock& clock, util::Time t) {
  assert(&clock == &clock_);
  // Step deadline by deadline so every timer fires with the clock reading
  // exactly its own deadline — the property the deterministic differential
  // tests rely on.
  while (true) {
    const util::Time d = wheel_.next_deadline();
    if (d > t) break;
    clock.set(d);
    wheel_.advance(d);
  }
  clock.set(t);
  wheel_.advance(t);
}

void Reactor::rebase(util::Time t) {
  if (wheel_.pending() != 0) {
    throw std::logic_error(
        "Reactor: rebase with pending timers would silently drop them");
  }
  wheel_ = TimerWheel(t);
}

bool Reactor::run_once(util::Time max_wait) {
  if (stopped_) return false;
  util::Time wait = max_wait;
  const util::Time next = wheel_.next_deadline();
  if (next != util::kTimeMax) {
    // Round the sleep up by one tick: the ms clock floors, so sleeping
    // exactly (next - now) can wake with the clock still reading one ms
    // before the deadline and busy-spin. One extra ms guarantees progress;
    // the subsequent advance() fires everything due.
    const util::Time until =
        std::max<util::Time>(next - clock_.now(), 0) + util::kMillisecond;
    wait = (wait < 0) ? until : std::min(wait, until);
  } else if (wait < 0) {
    wait = 100 * util::kMillisecond;  // no deadline: wake up periodically
  }

  const int timeout_ms =
      static_cast<int>(std::min<util::Time>(wait, 60 * util::kSecond));
  fds_->wait(timeout_ms, ready_scratch_);
  for (const int fd : ready_scratch_) {
    // Look the handler up fresh (a prior callback may have removed this fd)
    // and copy it out (the callback may remove/replace itself).
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;
    auto cb = it->second.on_readable;
    cb();
  }
  wheel_.advance(clock_.now());
  return !stopped_;
}

void Reactor::run() {
  while (run_once()) {
  }
}

}  // namespace bsub::net
