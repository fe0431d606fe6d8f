// Deterministic parallel-for over index ranges on a persistent thread pool.
//
// Rendering parallelizes over pixel groups; each group writes a disjoint
// pixel region and accumulates its own statistics into a per-group slot, so
// any dynamic schedule is race-free and the merged result is reproducible
// regardless of thread count or timing.
//
// The pool is created lazily on first use and persists for the process
// lifetime: repeated frames (the streaming case) pay no thread spawn/join
// cost per call. Iterations are claimed in contiguous chunks from a shared
// atomic counter (dynamic scheduling), which load-balances the skewed
// per-group costs typical of splatting while keeping the per-iteration
// overhead to one amortized atomic fetch-add.
//
// One job runs at a time; concurrent submitters (e.g. the per-session
// threads of a serve::SceneServer) are serialized FIFO-fairly — jobs are
// granted the pool strictly in arrival order, so no session can starve the
// others by resubmitting quickly. See also the async FIFO lane below,
// which runs *beside* jobs rather than between them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sgs {

// Number of workers used by the parallel loops (defaults to hardware
// concurrency, at least 1). Override via set_parallelism, e.g. in tests.
// Setting it tears down and rebuilds the persistent pool, so it must NOT be
// called from inside a parallel_for body (it would self-deadlock waiting
// for the job it is part of) nor concurrently with a running loop on
// another thread: callers size per-worker state from parallelism() before
// submitting, and a concurrent resize would let worker indices outrun it.
// It is a configuration knob for startup and tests, not a runtime control.
int parallelism();
void set_parallelism(int n);

// Invokes fn(i) for i in [begin, end). Blocks until all iterations complete.
// fn must be safe to call concurrently for distinct i. With parallelism() == 1
// (or a nested call from inside a worker) iterations run serially in order on
// the calling thread.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

// Worker-indexed variant: fn(worker, i) with worker in [0, parallelism()).
// A given worker index is used by at most one thread at a time — including
// through nested calls, which run serially under the enclosing worker's
// index — so callers can keep one scratch arena per worker and reuse it
// across iterations without locking (the FrameScheduler's GroupContext
// pattern).
void parallel_for_workers(
    std::size_t begin, std::size_t end,
    const std::function<void(int worker, std::size_t i)>& fn);

// Task-granular fairness observability (both monotone since process
// start; nested loops count toward the enclosing job, not separately):
// jobs the pool has completed, and the total nanoseconds submitters spent
// queued behind other jobs for the pool's FIFO ticket before their own job
// started. With N sessions multiplexed over the pool, wait/jobs is the
// average cross-session scheduling cost per frame task — the number a
// serve operator watches to see the pool seam, written as
// pool.jobs_completed / pool.submit_wait_ns by obs::write_frame_metrics_jsonl.
std::uint64_t pool_jobs_completed();
std::uint64_t pool_submit_wait_ns();

// ---------------------------------------------------------------------------
// Async lane of the persistent pool: a dedicated background worker that
// drains a FIFO of fire-and-forget tasks without ever blocking (or being
// blocked by) parallel_for jobs. The streaming loader uses it to prefetch
// voxel groups while a frame renders on the main workers.
//
// Tasks run strictly in submission order on one thread, so a producer that
// submits dependent tasks needs no further synchronization between them.
// The lane is created lazily on first submit and joined at process exit.
//
// Failure domain: an exception escaping a task does NOT std::terminate the
// process (a background prefetch failure must never kill the render loop).
// The lane catches it, records the task as completed, and captures the
// message into a bounded error channel that callers drain explicitly —
// typically at the async_wait_idle() that brackets a frame or a run.

// Enqueues fn for execution on the async lane and returns immediately.
void async_submit(std::function<void()> fn);

// Blocks until every task submitted before this call has finished.
void async_wait_idle();

// Tasks executed by the async lane since process start (diagnostics/tests).
std::uint64_t async_tasks_completed();

// Tasks whose exception the lane captured since process start (monotone).
std::uint64_t async_task_errors();

// Drains the captured error messages (oldest first) and clears the channel.
// The channel keeps at most the first 64 messages between drains; the
// counter above stays exact regardless.
std::vector<std::string> async_take_errors();

}  // namespace sgs
