#include "cpu/core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace aeep::cpu {

OutOfOrderCore::OutOfOrderCore(const CoreConfig& config, UopSource& source,
                               MemoryInterface& memory)
    : config_(config),
      source_(&source),
      mem_(&memory),
      bp_(config.bp),
      fu_(config.fu),
      ruu_(config.ruu_entries),
      ready_((config.ruu_entries + 63) / 64, 0) {
  assert(config.width > 0);
  assert(config.ruu_entries > 0 && config.lsq_entries > 0);
  fetchq_.slots.resize(config.fetch_queue);
}

void OutOfOrderCore::FetchQueue::push(const MicroOp& op) {
  unsigned i = head + size;
  if (i >= slots.size()) i -= static_cast<unsigned>(slots.size());
  slots[i] = op;
  ++size;
}

void OutOfOrderCore::FetchQueue::pop() {
  if (++head == slots.size()) head = 0;
  --size;
}

unsigned OutOfOrderCore::find_ready(unsigned from, unsigned end) const {
  while (from < end) {
    const u64 word = ready_[from / 64] >> (from % 64);
    if (word != 0) {
      const auto skip = static_cast<unsigned>(std::countr_zero(word));
      return std::min(end, from + skip);
    }
    from = (from / 64 + 1) * 64;
  }
  return end;
}

void OutOfOrderCore::wake_consumers(RuuEntry& producer) {
  for (u32 link = producer.first_consumer; link != kNoLink;) {
    const unsigned i = link >> 1;
    RuuEntry& c = ruu_[i];
    c.ready_cycle = std::max(c.ready_cycle, producer.complete_cycle);
    if (--c.waiting == 0) set_ready(i);
    link = c.next_consumer[link & 1];
  }
  producer.first_consumer = kNoLink;
}

bool OutOfOrderCore::forwarding_store(unsigned load_index) const {
  const Addr word = ruu_[load_index].op.mem_addr & ~Addr{7};
  // Scan older window entries for a store to the same word.
  for (unsigned i = head_; i != load_index; i = index_after(i, 1)) {
    const MicroOp& op = ruu_[i].op;
    if (op.cls == OpClass::kStore && (op.mem_addr & ~Addr{7}) == word)
      return true;
  }
  return false;
}

unsigned OutOfOrderCore::commit_stage() {
  unsigned done = 0;
  while (done < config_.width && count_ > 0) {
    RuuEntry& e = ruu_[head_];
    if (!e.issued || e.complete_cycle > now_) break;
    if (e.op.cls == OpClass::kStore) {
      // Write-through path: the store leaves the pipeline only once the
      // write buffer accepts it.
      if (!mem_->store(now_, e.op.mem_addr, e.op.store_value)) {
        ++stats_.commit_stall_wb_full;
        break;
      }
      ++stats_.stores;
      --lsq_count_;
    } else if (e.op.cls == OpClass::kLoad) {
      ++stats_.loads;
      --lsq_count_;
    } else if (e.op.cls == OpClass::kBranch) {
      ++stats_.branches;
    }
    head_ = index_after(head_, 1);
    --count_;
    ++stats_.committed;
    ++done;
  }
  return done;
}

void OutOfOrderCore::issue_stage() {
  unsigned issued = 0;
  // Oldest first: from the head to the end of the ring, then the wrapped
  // part. The bitmap is re-read after every issue, so a consumer woken with
  // a result due this very cycle is still seen in order.
  for (unsigned pass = 0; pass < 2; ++pass) {
    const unsigned end = pass == 0 ? config_.ruu_entries : head_;
    for (unsigned i = find_ready(pass == 0 ? head_ : 0, end); i < end;
         i = find_ready(i + 1, end)) {
      if (issued == config_.width) return;
      RuuEntry& e = ruu_[i];
      if (e.ready_cycle > now_) continue;

      const Cycle fu_done = fu_.try_issue(e.op.cls, now_);
      if (fu_done == 0) continue;  // structural hazard

      switch (e.op.cls) {
        case OpClass::kLoad:
          if (forwarding_store(i)) {
            e.complete_cycle = now_ + 1;  // store-to-load forwarding
          } else {
            e.complete_cycle = mem_->load(now_, e.op.mem_addr);
          }
          break;
        case OpClass::kStore:
          // Address generation only; data goes to memory at commit.
          e.complete_cycle = fu_done;
          break;
        default:
          e.complete_cycle = fu_done;
          break;
      }
      e.issued = true;
      clear_ready(i);
      wake_consumers(e);
      ++issued;

      if (e.mispredicted) {
        // Redirect fetched the cycle after resolution.
        assert(fetch_blocked_);
        fetch_ready_ = std::max(fetch_ready_, e.complete_cycle + 1);
        fetch_blocked_ = false;
      }
    }
  }
}

void OutOfOrderCore::dispatch_stage() {
  unsigned dispatched = 0;
  while (dispatched < config_.width && fetchq_.size > 0 &&
         count_ < config_.ruu_entries) {
    if (is_mem(fetchq_.front().cls) && lsq_count_ >= config_.lsq_entries)
      break;
    const MicroOp op = fetchq_.front();
    fetchq_.pop();

    const unsigned idx = index_after(head_, count_);
    RuuEntry& e = ruu_[idx];
    e = RuuEntry{};
    e.op = op;
    if (is_mem(op.cls)) ++lsq_count_;

    // Producers older than the window have committed (their results are
    // ready); one in the window has either issued, fixing when its result
    // arrives, or links this op onto its consumer chain.
    const u8 deps[2] = {op.dep1, op.dep2};
    for (unsigned slot = 0; slot < 2; ++slot) {
      const unsigned dist = deps[slot];
      if (dist == 0 || dist > count_) continue;
      RuuEntry& p = ruu_[index_after(idx, config_.ruu_entries - dist)];
      if (p.issued) {
        e.ready_cycle = std::max(e.ready_cycle, p.complete_cycle);
      } else {
        e.next_consumer[slot] = p.first_consumer;
        p.first_consumer = idx << 1 | slot;
        ++e.waiting;
      }
    }
    if (e.waiting == 0) set_ready(idx);

    if (op.cls == OpClass::kBranch) {
      const bool correct = bp_.update(op.pc, op.branch_taken, op.branch_target);
      if (!correct) {
        e.mispredicted = true;
        // Squash everything fetched behind the branch and stop fetching
        // until the branch resolves.
        fetchq_.size = 0;
        fetch_blocked_ = true;
        cur_fetch_block_ = kNoAddr;  // refetch starts a new block
      }
    }

    ++count_;
    ++dispatched;
    if (e.mispredicted) break;  // nothing valid behind it this cycle
  }
}

void OutOfOrderCore::fetch_stage() {
  if (fetch_blocked_) {
    ++stats_.fetch_stall_cycles;
    return;
  }
  if (now_ < fetch_ready_) {
    ++stats_.fetch_stall_cycles;
    return;
  }
  unsigned fetched = 0;
  while (fetched < config_.width && !fetchq_.full()) {
    MicroOp op = source_->next();
    const Addr block = op.pc / kFetchBlockBytes;
    if (block != cur_fetch_block_) {
      const Cycle ready = mem_->fetch(now_, op.pc);
      cur_fetch_block_ = block;
      if (ready > now_ + 1) {
        // I-cache miss: this block's ops arrive when the fill completes.
        fetch_ready_ = ready;
        fetchq_.push(op);
        return;
      }
    }
    fetchq_.push(op);
    ++fetched;
  }
}

unsigned OutOfOrderCore::step() {
  mem_->tick(now_);
  const unsigned committed = commit_stage();
  issue_stage();
  dispatch_stage();
  fetch_stage();
  ++now_;
  ++stats_.cycles;
  return committed;
}

Cycle OutOfOrderCore::next_active_cycle() const {
  Cycle next = kNever;
  // Commit: the head completes. A completed store the write buffer keeps
  // rejecting is retried, and counted, every cycle.
  if (count_ > 0 && ruu_[head_].issued) {
    if (ruu_[head_].complete_cycle <= now_) return now_;
    next = ruu_[head_].complete_cycle;
  }
  // Issue: a ready op's operands arrive. One whose operands are here acts
  // now even if it then loses FU arbitration.
  for (unsigned w = 0; w < ready_.size(); ++w) {
    for (u64 bits = ready_[w]; bits != 0; bits &= bits - 1) {
      const unsigned i = w * 64 + static_cast<unsigned>(std::countr_zero(bits));
      if (ruu_[i].ready_cycle <= now_) return now_;
      next = std::min(next, ruu_[i].ready_cycle);
    }
  }
  // Dispatch: room for the front of the fetch queue. Otherwise it waits on
  // a commit, which the head's completion above already bounds.
  if (fetchq_.size > 0 && count_ < config_.ruu_entries &&
      !(is_mem(fetchq_.front().cls) && lsq_count_ >= config_.lsq_entries))
    return now_;
  // Fetch: unblocked with queue room, once any I-cache fill lands. A
  // mispredict unblocks at the branch's issue, bounded above.
  if (!fetch_blocked_ && !fetchq_.full()) {
    if (fetch_ready_ <= now_) return now_;
    next = std::min(next, fetch_ready_);
  }
  return next;
}

void OutOfOrderCore::skip_idle_cycles() {
  Cycle next = next_active_cycle();
  if (next == now_) return;
  next = std::min(next, mem_->next_event(now_));
  if (next <= now_ || next == kNever) return;
  // Each skipped cycle is one step() that would only have counted itself
  // and, while fetch waits on a mispredict or an I-cache fill, a stall.
  const Cycle skipped = next - now_;
  stats_.cycles += skipped;
  stats_.fetch_stall_cycles +=
      fetch_blocked_ ? skipped
                     : std::min(next, std::max(fetch_ready_, now_)) - now_;
  now_ = next;
}

CoreStats OutOfOrderCore::run(u64 max_commits) {
  while (stats_.committed < max_commits) {
    skip_idle_cycles();
    step();
  }
  stats_.bp = bp_.stats();
  return stats_;
}

void OutOfOrderCore::reset_stats() {
  stats_ = {};
  bp_.reset_stats();
}

}  // namespace aeep::cpu
