#include "service/shard.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <vector>

#include "gpu/device.h"
#include "gpu/watchdog.h"

namespace gms::service {

namespace {

// ---- wire protocol (forked mode) -----------------------------------------
// Fixed-size little-endian structs over a pipe pair; the child answers
// every batch with exactly one WireResult or dies trying (EOF / deadline
// classify the death, the survey-runner idiom).

struct WireHeader {
  std::uint32_t tenant = 0;
  std::uint32_t op_count = 0;
  std::uint64_t tenant_seq = 0;
};
constexpr std::uint32_t kShutdownOpCount = 0xFFFFFFFFu;

struct WireOp {
  std::uint32_t kind = 0;
  std::uint32_t slot = 0;
  std::uint32_t size = 0;
};

struct WireResult {
  std::uint32_t verdict = 0;
  std::uint32_t ops_ok = 0;
  std::uint32_t ops_failed = 0;
  std::uint32_t orphaned = 0;
  std::uint64_t bytes_allocated = 0;
  std::uint64_t bytes_freed = 0;
};

bool full_read(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const auto r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool full_write(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const auto w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Writes into a dead child's pipe must come back as EPIPE, not SIGPIPE.
void ignore_sigpipe_once() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

/// Every parent-held shard pipe fd, so a freshly forked child can close
/// the OTHER shards' descriptors: a child inheriting a sibling's response
/// write end would keep that pipe open past the sibling's death and mask
/// the EOF the parent classifies crashes with.
std::mutex g_fds_mu;
std::vector<int> g_shard_fds;

void register_fds(int a, int b) {
  std::lock_guard lock(g_fds_mu);
  g_shard_fds.push_back(a);
  g_shard_fds.push_back(b);
}

void unregister_fds(int a, int b) {
  std::lock_guard lock(g_fds_mu);
  std::erase(g_shard_fds, a);
  std::erase(g_shard_fds, b);
}

void child_close_foreign_fds(int keep_a, int keep_b) {
  // Single-threaded child right after fork: the parent's registry copy is
  // frozen and consistent (the coordinator forks between rounds, never
  // while another thread holds g_fds_mu).
  for (const int fd : g_shard_fds) {
    if (fd != keep_a && fd != keep_b) ::close(fd);
  }
}

/// The shared batch executor: one kernel launch, one lane per op. Frees
/// resolve against the shard-resident slot table BEFORE the launch (host
/// plans, device consumes); results bind new slots after it.
struct ExecCounts {
  std::uint32_t ops_ok = 0;
  std::uint32_t ops_failed = 0;
  std::uint32_t orphaned = 0;
  std::uint64_t bytes_allocated = 0;
  std::uint64_t bytes_freed = 0;
};

std::uint64_t slot_key(std::uint32_t tenant, std::uint32_t slot) {
  return (std::uint64_t{tenant} << 32) | slot;
}

ExecCounts run_batch(gpu::Device& dev, core::MemoryManager& mgr,
                     std::unordered_map<std::uint64_t, DeviceShard::SlotVal>&
                         slots,
                     const Batch& batch) {
  ExecCounts out;
  const std::size_t n = batch.ops.size();
  std::vector<void*> free_ptrs(n, nullptr);
  std::vector<void*> results(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& op = batch.ops[i];
    if (op.kind != AllocOp::Kind::kFree) continue;
    const auto it = slots.find(slot_key(batch.tenant, op.slot));
    if (it == slots.end()) {
      ++out.orphaned;  // slot died with a failed-over device: absorb
      continue;
    }
    free_ptrs[i] = it->second.ptr;
    out.bytes_freed += it->second.size;
    slots.erase(it);
  }
  if (n > 0) {
    const auto* ops = batch.ops.data();
    auto* frees = free_ptrs.data();
    auto* res = results.data();
    dev.launch_n(n, [&mgr, ops, frees, res](gpu::ThreadCtx& ctx) {
      const auto i = ctx.thread_rank();
      const auto& op = ops[i];
      if (op.kind == AllocOp::Kind::kMalloc) {
        res[i] = mgr.malloc(ctx, op.size);
      } else if (frees[i] != nullptr) {
        mgr.free(ctx, frees[i]);
      }
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& op = batch.ops[i];
    if (op.kind == AllocOp::Kind::kMalloc) {
      if (results[i] == nullptr) {
        ++out.ops_failed;
      } else {
        ++out.ops_ok;
        out.bytes_allocated += op.size;
        slots[slot_key(batch.tenant, op.slot)] = {results[i], op.size};
      }
    } else if (free_ptrs[i] != nullptr) {
      ++out.ops_ok;
    }
  }
  return out;
}

/// Maps a batch-execution exception to the survey verdict vocabulary.
core::Verdict classify_exception(const std::exception& e) {
  if (dynamic_cast<const gpu::LaunchTimeout*>(&e) != nullptr) {
    return core::Verdict::kTimeout;
  }
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
    return core::Verdict::kOom;
  }
  return core::Verdict::kValidationError;
}

/// Child-side server loop: the in-process shard behind a pipe. Builds a
/// DeviceShard from the parent's Options (in-process), then answers each
/// batch with that shard's execute() until shutdown or death. Never
/// returns.
[[noreturn]] void child_main(int req_fd, int rsp_fd, unsigned id,
                             DeviceShard::Options opts) {
  opts.forked = false;
  std::unique_ptr<DeviceShard> shard;
  try {
    shard = std::make_unique<DeviceShard>(id, std::move(opts));
  } catch (...) {
    ::_exit(core::SurveyRunner::kExitValidation);
  }
  for (;;) {
    WireHeader hdr;
    if (!full_read(req_fd, &hdr, sizeof hdr)) ::_exit(0);
    if (hdr.op_count == kShutdownOpCount) ::_exit(0);
    Batch batch;
    batch.tenant = hdr.tenant;
    batch.tenant_seq = hdr.tenant_seq;
    batch.ops.resize(hdr.op_count);
    std::vector<WireOp> wire_ops(hdr.op_count);
    if (hdr.op_count > 0 &&
        !full_read(req_fd, wire_ops.data(),
                   wire_ops.size() * sizeof(WireOp))) {
      ::_exit(0);
    }
    for (std::size_t i = 0; i < wire_ops.size(); ++i) {
      batch.ops[i].kind = wire_ops[i].kind == 0 ? AllocOp::Kind::kMalloc
                                                : AllocOp::Kind::kFree;
      batch.ops[i].slot = wire_ops[i].slot;
      batch.ops[i].size = wire_ops[i].size;
    }
    const BatchResult r = shard->execute(batch);
    const WireResult res{static_cast<std::uint32_t>(r.verdict), r.ops_ok,
                         r.ops_failed, r.orphaned_frees, r.bytes_allocated,
                         r.bytes_freed};
    if (!full_write(rsp_fd, &res, sizeof res)) ::_exit(0);
  }
}

}  // namespace

DeviceShard::DeviceShard(unsigned id, Options opts)
    : id_(id), opts_(std::move(opts)) {
  ignore_sigpipe_once();
  if (opts_.forked) {
    spawn_child();
  } else {
    build_in_process();
  }
}

DeviceShard::~DeviceShard() {
  if (opts_.forked) {
    if (child_pid_ > 0 && alive_) {
      // Polite shutdown first so the child's _exit runs; SIGKILL backstop.
      WireHeader hdr;
      hdr.op_count = kShutdownOpCount;
      (void)full_write(req_fd_, &hdr, sizeof hdr);
    }
    reap_child(/*force_kill=*/true);
  }
}

void DeviceShard::build_in_process() {
  cell_ = std::make_unique<core::StackCell>(
      core::StackSpec::parse(opts_.stack), opts_.heap_bytes, opts_.num_sms,
      opts_.watchdog_ms);
  slots_.clear();
  poisoned_ = false;
  alive_ = true;
}

void DeviceShard::spawn_child() {
  int req[2] = {-1, -1};
  int rsp[2] = {-1, -1};
  if (::pipe(req) != 0 || ::pipe(rsp) != 0) {
    throw std::runtime_error{"DeviceShard: pipe() failed"};
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error{"DeviceShard: fork() failed"};
  }
  if (pid == 0) {
    ::close(req[1]);
    ::close(rsp[0]);
    child_close_foreign_fds(req[0], rsp[1]);
    child_main(req[0], rsp[1], id_, opts_);  // never returns
  }
  ::close(req[0]);
  ::close(rsp[1]);
  child_pid_ = pid;
  req_fd_ = req[1];
  rsp_fd_ = rsp[0];
  register_fds(req_fd_, rsp_fd_);
  alive_ = true;
}

void DeviceShard::reap_child(bool force_kill) {
  if (child_pid_ > 0) {
    if (force_kill) ::kill(child_pid_, SIGKILL);
    int status = 0;
    (void)::waitpid(child_pid_, &status, 0);
    child_pid_ = -1;
  }
  if (req_fd_ >= 0 || rsp_fd_ >= 0) {
    unregister_fds(req_fd_, rsp_fd_);
  }
  if (req_fd_ >= 0) ::close(req_fd_);
  if (rsp_fd_ >= 0) ::close(rsp_fd_);
  req_fd_ = rsp_fd_ = -1;
  alive_ = false;
}

void DeviceShard::kill() {
  if (opts_.forked) {
    reap_child(/*force_kill=*/true);
  } else {
    poisoned_ = true;
    alive_ = false;
  }
}

bool DeviceShard::respawn() {
  if (opts_.forked) {
    reap_child(/*force_kill=*/true);
    try {
      spawn_child();
    } catch (...) {
      return false;
    }
    return true;
  }
  try {
    cell_.reset();  // join the old SM workers before rebuilding
    build_in_process();
  } catch (...) {
    alive_ = false;
    return false;
  }
  return true;
}

BatchResult DeviceShard::execute(const Batch& batch) {
  const auto t0 = std::chrono::steady_clock::now();
  BatchResult res = opts_.forked ? execute_forked(batch)
                                 : execute_in_process(batch);
  res.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
  if (res.verdict == core::Verdict::kOk) ++completed_batches_;
  return res;
}

BatchResult DeviceShard::execute_in_process(const Batch& batch) {
  BatchResult res;
  if (poisoned_ || cell_ == nullptr) {
    res.verdict = core::Verdict::kCrash;
    res.detail = "shard device is dead";
    return res;
  }
  try {
    const auto counts = run_batch(cell_->dev(), cell_->mgr(), slots_, batch);
    res.ops_ok = counts.ops_ok;
    res.ops_failed = counts.ops_failed;
    res.orphaned_frees = counts.orphaned;
    res.bytes_allocated = counts.bytes_allocated;
    res.bytes_freed = counts.bytes_freed;
  } catch (const std::exception& e) {
    res.verdict = classify_exception(e);
    res.detail = e.what();
  } catch (...) {
    res.verdict = core::Verdict::kValidationError;
    res.detail = "non-standard exception from batch launch";
  }
  return res;
}

BatchResult DeviceShard::execute_forked(const Batch& batch) {
  BatchResult res;
  if (!alive_) {
    res.verdict = core::Verdict::kCrash;
    res.detail = "shard child is dead";
    return res;
  }
  WireHeader hdr;
  hdr.tenant = batch.tenant;
  hdr.op_count = static_cast<std::uint32_t>(batch.ops.size());
  hdr.tenant_seq = batch.tenant_seq;
  std::vector<WireOp> wire_ops(batch.ops.size());
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    wire_ops[i].kind =
        batch.ops[i].kind == AllocOp::Kind::kMalloc ? 0u : 1u;
    wire_ops[i].slot = batch.ops[i].slot;
    wire_ops[i].size = batch.ops[i].size;
  }
  if (!full_write(req_fd_, &hdr, sizeof hdr) ||
      (!wire_ops.empty() &&
       !full_write(req_fd_, wire_ops.data(),
                   wire_ops.size() * sizeof(WireOp)))) {
    reap_child(/*force_kill=*/true);
    res.verdict = core::Verdict::kCrash;
    res.detail = "shard pipe broke on submit (child died)";
    return res;
  }
  // Deadline-bounded wait for the child's answer: a hung child is a
  // timeout verdict, a dead pipe a crash — the waitpid/SIGKILL model of
  // SurveyRunner::run_attempt, per batch instead of per cell.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opts_.batch_deadline_s));
  WireResult wire;
  std::size_t got = 0;
  auto* dst = reinterpret_cast<char*>(&wire);
  while (got < sizeof wire) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      reap_child(/*force_kill=*/true);
      res.verdict = core::Verdict::kTimeout;
      res.detail = "batch deadline expired; child SIGKILLed";
      return res;
    }
    pollfd pfd{rsp_fd_, POLLIN, 0};
    const int remaining_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1);
    const int pr = ::poll(&pfd, 1, remaining_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      reap_child(/*force_kill=*/true);
      res.verdict = core::Verdict::kCrash;
      res.detail = "poll on shard pipe failed";
      return res;
    }
    if (pr == 0) continue;  // re-check deadline
    const auto r = ::read(rsp_fd_, dst + got, sizeof wire - got);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      int status = 0;
      (void)::waitpid(child_pid_, &status, 0);
      child_pid_ = -1;
      reap_child(/*force_kill=*/false);
      res.verdict = core::Verdict::kCrash;
      if (WIFSIGNALED(status)) {
        res.detail = "shard child killed by signal " +
                     std::to_string(WTERMSIG(status));
      } else {
        res.detail = "shard child exited mid-batch";
      }
      return res;
    }
    got += static_cast<std::size_t>(r);
  }
  res.verdict = static_cast<core::Verdict>(wire.verdict);
  res.ops_ok = wire.ops_ok;
  res.ops_failed = wire.ops_failed;
  res.orphaned_frees = wire.orphaned;
  res.bytes_allocated = wire.bytes_allocated;
  res.bytes_freed = wire.bytes_freed;
  return res;
}

}  // namespace gms::service
