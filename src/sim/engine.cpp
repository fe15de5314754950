#include "sim/engine.h"

#include <algorithm>

#include "snap/io.h"

namespace k2 {
namespace sim {

Engine::~Engine()
{
    // Destroy payloads of events still pending at teardown (coroutine
    // frames are owned elsewhere; callables are destroyed in place).
    for (const HeapEntry &e : heap_) {
        Record &r = rec(e.slot);
        if (r.gen == e.gen && r.kind != Record::Kind::Free)
            destroyPayload(r);
    }
}

Engine::Slot
Engine::allocSlot(Time when, std::uint64_t seq)
{
    if (when < now_)
        K2_PANIC("event scheduled in the past (%llu < %llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now_));
    std::uint32_t slot;
    if (freeHead_ != EventId::kInvalidSlot) {
        slot = freeHead_;
        freeHead_ = rec(slot).nextFree;
    } else {
        if (allocatedSlots_ == chunks_.size() * kChunkSize)
            chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
        slot = allocatedSlots_++;
    }
    Record &r = rec(slot);
    heapPush(HeapEntry{when, seq, slot, r.gen});
    ++live_;
    return Slot{&r, slot};
}

Engine::Slot
Engine::allocSlot(Time when)
{
    return allocSlot(when, seq_++);
}

void
Engine::freeSlot(std::uint32_t slot, Record &r)
{
    ++r.gen;
    r.kind = Record::Kind::Free;
    r.manager = nullptr;
    r.nextFree = freeHead_;
    freeHead_ = slot;
    --live_;
}

void
Engine::destroyPayload(Record &r)
{
    switch (r.kind) {
      case Record::Kind::Coro:
        // The engine does not own coroutine frames; dropping the
        // handle matches the previous std::function behaviour.
        break;
      case Record::Kind::Inline:
        r.manager(CbOp::Destroy, r.payload.buf, nullptr);
        break;
      case Record::Kind::Free:
        break;
    }
}

void
Engine::cancel(EventId &id)
{
    if (id.slot_ != EventId::kInvalidSlot && id.slot_ < allocatedSlots_) {
        Record &r = rec(id.slot_);
        if (r.gen == id.gen_ && r.kind != Record::Kind::Free) {
            destroyPayload(r);
            freeSlot(id.slot_, r);
            // The heap entry stays behind and is dropped (by its stale
            // generation) when it reaches the top, or swept out by
            // compaction once stale entries dominate.
            ++staleEntries_;
            if (staleEntries_ > 64 && staleEntries_ * 2 > heap_.size())
                compactHeap();
        }
    }
    id = EventId();
}

EventId
Engine::atResume(Time when, std::coroutine_handle<> h)
{
    Slot s = allocSlot(when);
    s.rec->payload.coro = h;
    s.rec->kind = Record::Kind::Coro;
    return EventId(s.slot, s.rec->gen);
}

void
Engine::spawn(Task<void> task)
{
    if (!task.valid())
        K2_PANIC("spawn of an empty task");
    auto handle = task.release();
    handle.promise().setDetached();
    atResume(now_, handle);
}

void
Engine::heapPush(const HeapEntry &e)
{
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!earlier(heap_[i], heap_[parent]))
            break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void
Engine::siftDown(std::size_t i)
{
    // Move heap_[i] down in place until both it and all four children
    // satisfy the heap order (no repeated swaps; one write per level).
    const std::size_t n = heap_.size();
    const HeapEntry moved = heap_[i];
    for (;;) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], moved))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = moved;
}

void
Engine::heapPopTop()
{
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (heap_.size() > 1)
        siftDown(0);
}

void
Engine::compactHeap()
{
    std::size_t keep = 0;
    for (const HeapEntry &e : heap_) {
        if (rec(e.slot).gen == e.gen)
            heap_[keep++] = e;
    }
    heap_.resize(keep);
    staleEntries_ = 0;
    if (keep > 1) {
        // Floyd heapify: sift down every internal node.
        for (std::size_t i = (keep - 2) / 4 + 1; i-- > 0;)
            siftDown(i);
    }
}

void
Engine::dispatch(std::uint32_t slot, Record &r)
{
    switch (r.kind) {
      case Record::Kind::Coro: {
        const std::coroutine_handle<> h = r.payload.coro;
        freeSlot(slot, r);
        h.resume();
        break;
      }
      case Record::Kind::Inline: {
        // Relocate the callable out of the pool before invoking so it
        // may reschedule (and even land in this very slot) safely.
        alignas(std::max_align_t) unsigned char tmp[kInlineCapture];
        const Manager mgr = r.manager;
        mgr(CbOp::Relocate, r.payload.buf, tmp);
        freeSlot(slot, r);
        PayloadGuard guard{mgr, tmp};
        mgr(CbOp::Invoke, tmp, nullptr);
        break;
      }
      case Record::Kind::Free:
        K2_PANIC("dispatch of a free event slot");
    }
}

bool
Engine::runOne()
{
    while (!heap_.empty()) {
        const HeapEntry e = heap_[0];
        heapPopTop();
        Record &r = rec(e.slot);
        if (r.gen != e.gen) {
            // Cancelled; the slot may already be reused.
            --staleEntries_;
            continue;
        }
        now_ = e.when;
        ++dispatched_;
        dispatch(e.slot, r);
        return true;
    }
    return false;
}

void
Engine::snapState(snap::Io &io)
{
    // Quiescence: nothing pending, so the slab is entirely a free-list
    // permutation and no payload/coroutine serialisation is needed.
    K2_ASSERT(heap_.empty());
    K2_ASSERT(live_ == 0);
    K2_ASSERT(staleEntries_ == 0);

    io.pod(now_);
    io.pod(seq_);
    io.pod(dispatched_);
    tracer_.snapState(io);

    // The slot table: the exact generation values and free-list chain
    // determine which {slot, gen} handles future allocations receive,
    // so restoring them makes a rewound engine indistinguishable from
    // a cold-booted one. The pool only ever grows; a restore target
    // must cover the captured high-water mark.
    std::uint32_t alloc = allocatedSlots_;
    io.pod(alloc);
    std::uint32_t head = freeHead_;
    io.pod(head);
    if (io.restoring()) {
        K2_ASSERT(alloc <= allocatedSlots_);
        // Slots past the captured high-water mark go back to pristine:
        // they will be handed out through the bump path with gen 0,
        // exactly as on a cold engine.
        for (std::uint32_t s = alloc; s < allocatedSlots_; ++s) {
            Record &r = rec(s);
            r.gen = 0;
            r.nextFree = EventId::kInvalidSlot;
            r.kind = Record::Kind::Free;
            r.manager = nullptr;
        }
        allocatedSlots_ = alloc;
        freeHead_ = head;
    }
    for (std::uint32_t s = 0; s < alloc; ++s) {
        Record &r = rec(s);
        K2_ASSERT(r.kind == Record::Kind::Free);
        io.pod(r.gen);
        io.pod(r.nextFree);
    }
}

std::uint64_t
Engine::run(Time until)
{
    std::uint64_t n = 0;
    while (!heap_.empty()) {
        // Drop cancelled entries without advancing time.
        const HeapEntry &top = heap_[0];
        if (rec(top.slot).gen != top.gen) {
            heapPopTop();
            --staleEntries_;
            continue;
        }
        if (top.when > until)
            break;
        if (!runOne())
            break;
        ++n;
    }
    if (until != kTimeNever && now_ < until)
        now_ = until;
    return n;
}

} // namespace sim
} // namespace k2
